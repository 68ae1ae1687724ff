//! Session checkpoint/restore: crash-only serving.
//!
//! A [`SessionCheckpoint`] is a deterministic, versioned snapshot of
//! everything that makes a session's **view**: the trace (as canonical
//! CSV interchange text, so the checkpoint is self-contained across a
//! process restart), the collapse set, the time slice, the force
//! sliders, the per-group scaling sliders, the position and pin state
//! of every visible node, the ingestion-degradation counters, and the
//! view revision.
//!
//! The correctness bar is **byte-identical rendering**: a session
//! restored from a checkpoint renders exactly the bytes the live
//! session rendered at checkpoint time, at the same revision. A second
//! consequence is the *fixed point* property — checkpointing a restored
//! session reproduces the original checkpoint byte for byte — which is
//! what makes kill-restore-replay cycles testable.
//!
//! Serialization goes through the same canonical JSON codec as the wire
//! protocol ([`crate::json`]): fixed member order, sorted collections,
//! shortest-round-trip numbers. Same checkpoint, same bytes, always.
//!
//! What a checkpoint deliberately does **not** carry:
//!
//! * layout *momentum* (velocities) and the layout RNG: positions are
//!   the visual contract; a restored session relaxes from rest;
//! * the frame cache: it is a pure function of (revision, viewport)
//!   and refills on demand;
//! * watchdog freeze state: a restored layout starts thawed — the
//!   conditions that froze it are gone with the process.

use std::fmt;
use std::sync::Arc;

use viva::AnalysisSession;
use viva_agg::AggIndex;
use viva_layout::{NodeKey, Vec2};
use viva_obs::Recorder;
use viva_trace::{
    ContainerId, MetricId, RecoveryMode, ResourceBudget, Trace, TraceError, TraceLoader,
};

use crate::json::{Json, ObjectWriter};
use crate::protocol::DecodeError;
use crate::store::{content_hash, hash_token};

/// Format version written by [`SessionCheckpoint::capture`]. Bump on
/// any incompatible change to the member set; restore rejects versions
/// it does not understand. Version 2 added `trace_hash` — the content
/// hash the server's `TraceStore` uses to re-link a restored session
/// to an already-loaded shared trace. Version 3 added the optional
/// `journal` member linking a live streaming session back to its
/// event journal; version-2 checkpoints still restore (they simply
/// carry no journal link).
pub const CHECKPOINT_VERSION: u64 = 3;

/// Oldest checkpoint version [`SessionCheckpoint::restore`] accepts.
pub const OLDEST_RESTORABLE_VERSION: u64 = 2;

/// Position and pin state of one visible node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePlacement {
    /// Container index (stable across the canonical CSV round trip).
    pub container: u64,
    /// Layout x coordinate.
    pub x: f64,
    /// Layout y coordinate.
    pub y: f64,
    /// Whether the node is pinned (dragged and not yet released).
    pub pinned: bool,
}

/// A deterministic, versioned snapshot of one session's view state.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// Checkpoint format version ([`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// The session's name at capture time.
    pub session: String,
    /// The session's view revision at capture time.
    pub revision: u64,
    /// Effective time slice (already clamped to the trace extent).
    pub slice_start: f64,
    /// Effective time slice end.
    pub slice_end: f64,
    /// Collapsed container indices, sorted.
    pub collapsed: Vec<u64>,
    /// Sanitized force sliders: repulsion, spring, damping.
    pub forces: (f64, f64, f64),
    /// Touched scaling sliders, sorted by group name.
    pub scaling: Vec<(String, f64)>,
    /// Every visible node's position and pin state, sorted by
    /// container index.
    pub placements: Vec<NodePlacement>,
    /// Quarantine counters `(container, metric, count)`, sorted — the
    /// ingestion facts the canonical CSV cannot carry.
    pub quarantined: Vec<(u64, u64, u64)>,
    /// Records dropped by the original (possibly lenient) ingest.
    pub ingest_dropped: u64,
    /// For live streaming sessions: the `(journal id, last acked
    /// sequence number)` pair linking this checkpoint back to its
    /// event journal. A restoring server re-opens the journal and
    /// replays the records after `last_seq` through the ordinary
    /// append path, so a checkpoint plus its journal reconstructs the
    /// stream exactly. `None` for batch sessions (and for version-2
    /// checkpoints).
    pub journal: Option<(String, u64)>,
    /// Content hash of `trace_csv` (FNV-1a 64, 16 lowercase hex
    /// digits). Restore verifies it against the embedded CSV, and the
    /// server uses it to re-link the session to a stored shared trace
    /// with the same content instead of re-parsing.
    pub trace_hash: String,
    /// The trace as canonical CSV interchange text. Kept last so the
    /// bulk payload does not obscure the state members in a dump.
    pub trace_csv: String,
}

/// Why a checkpoint could not be turned back into a session. The
/// server maps this onto the typed `bad_checkpoint` wire error.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The checkpoint was written by an unknown format version.
    Version {
        /// The version the checkpoint claims.
        found: u64,
    },
    /// The embedded trace failed to load (parse error or budget
    /// breach — checkpoints are external input and get the same
    /// ingestion scrutiny as an upload).
    Trace(String),
    /// The state members do not fit the embedded trace (unknown
    /// container, hidden placement target, non-finite values).
    State(String),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Version { found } => write!(
                f,
                "checkpoint version {found} is not supported (this server writes \
                 version {CHECKPOINT_VERSION})"
            ),
            RestoreError::Trace(m) => write!(f, "checkpoint trace rejected: {m}"),
            RestoreError::State(m) => write!(f, "checkpoint state rejected: {m}"),
        }
    }
}

impl std::error::Error for RestoreError {}

fn key_of(index: u64) -> NodeKey {
    NodeKey(index)
}

impl SessionCheckpoint {
    /// Snapshots `analysis` (named `session` in the registry) into a
    /// checkpoint. Pure read: the session is not perturbed.
    pub fn capture(session: &str, analysis: &AnalysisSession) -> SessionCheckpoint {
        let trace = analysis.trace();
        let slice = analysis.time_slice();
        let cfg = analysis.layout().config();

        let mut placements: Vec<NodePlacement> = analysis
            .layout()
            .positions()
            .map(|(k, pos)| NodePlacement {
                container: k.0,
                x: pos.x,
                y: pos.y,
                pinned: analysis.layout().is_pinned(k),
            })
            .collect();
        placements.sort_by_key(|p| p.container);

        let mut quarantined: Vec<(u64, u64, u64)> = trace
            .quarantined_entries()
            .map(|(c, m, n)| (c.index() as u64, m.index() as u64, n))
            .collect();
        quarantined.sort_unstable();
        let trace_csv = viva_trace::export::to_csv(trace);

        SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            session: session.to_owned(),
            revision: analysis.revision(),
            slice_start: slice.start(),
            slice_end: slice.end(),
            collapsed: analysis
                .view_state()
                .collapsed_ids()
                .into_iter()
                .map(|c| c.index() as u64)
                .collect(),
            forces: (cfg.repulsion, cfg.spring, cfg.damping),
            scaling: analysis.scaling().sliders(),
            placements,
            quarantined,
            ingest_dropped: trace.ingest_dropped(),
            journal: None,
            trace_hash: hash_token(content_hash(trace_csv.as_bytes())),
            trace_csv,
        }
    }

    /// Rebuilds a live session from this checkpoint. The embedded
    /// trace is re-ingested in strict mode under `budget` (checkpoints
    /// are external input), then the view state is replayed through the
    /// session's ordinary mutators and the revision snapped back to the
    /// captured value. A render of the result is byte-identical to a
    /// render of the captured session.
    pub fn restore(
        &self,
        budget: ResourceBudget,
        recorder: Recorder,
    ) -> Result<AnalysisSession, RestoreError> {
        if !(OLDEST_RESTORABLE_VERSION..=CHECKPOINT_VERSION).contains(&self.version) {
            return Err(RestoreError::Version { found: self.version });
        }
        let found = hash_token(content_hash(self.trace_csv.as_bytes()));
        if found != self.trace_hash {
            return Err(RestoreError::Trace(format!(
                "trace hash mismatch: checkpoint claims {} but the embedded CSV hashes \
                 to {found}",
                self.trace_hash
            )));
        }
        let loader = TraceLoader::new()
            .mode(RecoveryMode::Strict)
            .budget(budget)
            .recorder(recorder.clone());
        let report = loader.load_str(&self.trace_csv).map_err(|e| match e {
            TraceError::BudgetExceeded(b) => RestoreError::Trace(b.to_string()),
            other => RestoreError::Trace(other.to_string()),
        })?;
        let mut trace = report.trace.clone();
        let containers = trace.containers().len() as u64;
        let metrics = trace.metrics().len() as u64;

        let quarantined: Vec<(ContainerId, MetricId, u64)> = self
            .quarantined
            .iter()
            .map(|&(c, m, n)| {
                if c >= containers || m >= metrics {
                    return Err(RestoreError::State(format!(
                        "quarantine entry ({c}, {m}) is outside the trace"
                    )));
                }
                Ok((
                    ContainerId::from_index(c as usize),
                    MetricId::from_index(m as usize),
                    n,
                ))
            })
            .collect::<Result<_, _>>()?;
        trace.restore_ingest_degradation(&quarantined, self.ingest_dropped);

        let mut analysis = AnalysisSession::builder(trace).recorder(recorder).build();
        self.replay_state(&mut analysis)?;
        Ok(analysis)
    }

    /// Rebuilds a session over an **already-loaded shared trace** — the
    /// server's re-link fast path: no CSV re-parse, no index rebuild.
    /// Only sound when the checkpoint carries no ingestion degradation
    /// (quarantine counters and drop counts live on the trace, and a
    /// shared trace cannot be mutated) and when both the checkpoint and
    /// the shared trace are clean; the caller matches `trace_hash`
    /// against the store before calling. Violations are reported as
    /// [`RestoreError::State`] and the caller falls back to
    /// [`restore`](SessionCheckpoint::restore).
    pub fn restore_shared(
        &self,
        trace: Arc<Trace>,
        index: Option<Arc<AggIndex>>,
        recorder: Recorder,
    ) -> Result<AnalysisSession, RestoreError> {
        if !(OLDEST_RESTORABLE_VERSION..=CHECKPOINT_VERSION).contains(&self.version) {
            return Err(RestoreError::Version { found: self.version });
        }
        if !self.quarantined.is_empty() || self.ingest_dropped != 0 {
            return Err(RestoreError::State(
                "checkpoint carries ingestion degradation; shared-trace restore \
                 requires a clean trace"
                    .into(),
            ));
        }
        if trace.quarantined_entries().next().is_some() || trace.ingest_dropped() != 0 {
            return Err(RestoreError::State(
                "stored trace carries ingestion degradation the checkpoint does not"
                    .into(),
            ));
        }
        let mut builder = AnalysisSession::builder(trace).recorder(recorder);
        if let Some(index) = index {
            builder = builder.shared_index(index);
        }
        let mut analysis = builder.build();
        self.replay_state(&mut analysis)?;
        Ok(analysis)
    }

    /// Replays the checkpointed view state into a freshly built
    /// session through its ordinary mutators, then snaps the revision
    /// back to the captured value.
    fn replay_state(&self, analysis: &mut AnalysisSession) -> Result<(), RestoreError> {
        let containers = analysis.trace().containers().len() as u64;
        for &c in &self.collapsed {
            if c >= containers {
                return Err(RestoreError::State(format!(
                    "collapsed container {c} is outside the trace"
                )));
            }
            analysis
                .collapse(ContainerId::from_index(c as usize))
                .map_err(|e| RestoreError::State(e.to_string()))?;
        }
        analysis
            .try_set_time_slice(self.slice_start, self.slice_end)
            .map_err(|e| RestoreError::State(e.to_string()))?;
        {
            let cfg = analysis.layout_config_mut();
            cfg.repulsion = self.forces.0;
            cfg.spring = self.forces.1;
            cfg.damping = self.forces.2;
            *cfg = cfg.sanitized();
        }
        for (group, factor) in &self.scaling {
            if !(factor.is_finite() && *factor >= 0.0) {
                return Err(RestoreError::State(format!(
                    "scaling slider {group:?} has illegal factor {factor}"
                )));
            }
            analysis.scaling_mut().set_slider(group.clone(), *factor);
        }
        for p in &self.placements {
            if !(p.x.is_finite() && p.y.is_finite()) {
                return Err(RestoreError::State(format!(
                    "placement of container {} is not finite",
                    p.container
                )));
            }
            let k = key_of(p.container);
            if !analysis.layout_mut().move_node(k, Vec2::new(p.x, p.y)) {
                return Err(RestoreError::State(format!(
                    "placement names container {} which is not visible under the \
                     checkpointed collapse set",
                    p.container
                )));
            }
            if p.pinned {
                analysis.layout_mut().pin(k);
            }
        }
        analysis.restore_revision(self.revision);
        Ok(())
    }

    /// Serializes to the canonical one-line JSON form.
    pub fn encode(&self) -> String {
        ObjectWriter::encode(|o| self.write_members(o))
    }

    /// Parses a checkpoint from its canonical JSON line.
    pub fn decode(line: &str) -> Result<SessionCheckpoint, DecodeError> {
        let v = Json::parse(line)
            .map_err(|e| DecodeError { message: format!("invalid JSON: {e}") })?;
        SessionCheckpoint::from_json(v)
    }

    /// Writes the checkpoint's members; the trace CSV, by far the
    /// largest, straight from `self`.
    pub(crate) fn write_members(&self, o: &mut ObjectWriter<'_>) {
        let num = Json::Num;
        o.members(vec![
            ("version", num(self.version as f64)),
            ("session", Json::Str(self.session.clone())),
            ("revision", num(self.revision as f64)),
            (
                "slice",
                Json::Obj(vec![
                    ("start".into(), num(self.slice_start)),
                    ("end".into(), num(self.slice_end)),
                ]),
            ),
            (
                "collapsed",
                Json::Arr(self.collapsed.iter().map(|&c| num(c as f64)).collect()),
            ),
            (
                "forces",
                Json::Obj(vec![
                    ("repulsion".into(), num(self.forces.0)),
                    ("spring".into(), num(self.forces.1)),
                    ("damping".into(), num(self.forces.2)),
                ]),
            ),
            (
                "scaling",
                Json::Obj(
                    self.scaling.iter().map(|(g, f)| (g.clone(), num(*f))).collect(),
                ),
            ),
            (
                "nodes",
                Json::Arr(
                    self.placements
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("c".into(), num(p.container as f64)),
                                ("x".into(), num(p.x)),
                                ("y".into(), num(p.y)),
                                ("pin".into(), Json::Bool(p.pinned)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "quarantined",
                Json::Arr(
                    self.quarantined
                        .iter()
                        .map(|&(c, m, n)| {
                            Json::Arr(vec![num(c as f64), num(m as f64), num(n as f64)])
                        })
                        .collect(),
                ),
            ),
            ("ingest_dropped", num(self.ingest_dropped as f64)),
        ]);
        // Optional member: absent for batch sessions, so version-3
        // checkpoints of non-streaming sessions are byte-identical to
        // version-2 ones apart from the version number.
        if let Some((id, last_seq)) = &self.journal {
            o.object("journal", |o| {
                o.str("id", id);
                o.member("last_seq", &num(*last_seq as f64));
            });
        }
        o.str("trace_hash", &self.trace_hash);
        o.str("trace_csv", &self.trace_csv);
    }

    /// Decodes a checkpoint, moving the trace CSV out of `v` rather than
    /// copying it.
    pub(crate) fn from_json(mut v: Json) -> Result<SessionCheckpoint, DecodeError> {
        let bad = |m: &str| DecodeError { message: m.to_owned() };
        let uint = |v: &Json, k: &str| -> Result<u64, DecodeError> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(&format!("missing or non-integer checkpoint field {k:?}")))
        };
        let num = |v: &Json, k: &str| -> Result<f64, DecodeError> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(&format!("missing or non-numeric checkpoint field {k:?}")))
        };
        let text = |v: &Json, k: &str| -> Result<String, DecodeError> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| bad(&format!("missing or non-string checkpoint field {k:?}")))
        };

        let slice = v.get("slice").ok_or_else(|| bad("missing checkpoint field \"slice\""))?;
        let forces = v.get("forces").ok_or_else(|| bad("missing checkpoint field \"forces\""))?;
        let collapsed = match v.get("collapsed") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|i| i.as_u64().ok_or_else(|| bad("non-integer collapsed entry")))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(bad("missing or non-array checkpoint field \"collapsed\"")),
        };
        let scaling = match v.get("scaling") {
            Some(Json::Obj(members)) => members
                .iter()
                .map(|(g, f)| {
                    f.as_f64()
                        .map(|f| (g.clone(), f))
                        .ok_or_else(|| bad("non-numeric scaling slider"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(bad("missing or non-object checkpoint field \"scaling\"")),
        };
        let placements = match v.get("nodes") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|p| {
                    Ok(NodePlacement {
                        container: uint(p, "c")?,
                        x: num(p, "x")?,
                        y: num(p, "y")?,
                        pinned: p
                            .get("pin")
                            .and_then(Json::as_bool)
                            .ok_or_else(|| bad("missing or non-boolean placement \"pin\""))?,
                    })
                })
                .collect::<Result<Vec<_>, DecodeError>>()?,
            _ => return Err(bad("missing or non-array checkpoint field \"nodes\"")),
        };
        let quarantined = match v.get("quarantined") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|e| match e {
                    Json::Arr(t) if t.len() == 3 => {
                        let g = |i: usize| {
                            t[i].as_u64().ok_or_else(|| bad("non-integer quarantine entry"))
                        };
                        Ok((g(0)?, g(1)?, g(2)?))
                    }
                    _ => Err(bad("quarantine entry must be a [container, metric, count] triple")),
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(bad("missing or non-array checkpoint field \"quarantined\"")),
        };

        Ok(SessionCheckpoint {
            version: uint(&v, "version")?,
            session: text(&v, "session")?,
            revision: uint(&v, "revision")?,
            slice_start: num(slice, "start")?,
            slice_end: num(slice, "end")?,
            collapsed,
            forces: (num(forces, "repulsion")?, num(forces, "spring")?, num(forces, "damping")?),
            scaling,
            placements,
            quarantined,
            ingest_dropped: uint(&v, "ingest_dropped")?,
            journal: match v.get("journal") {
                None | Some(Json::Null) => None,
                Some(j) => Some((text(j, "id")?, uint(j, "last_seq")?)),
            },
            // Absent on version-1 checkpoints; they decode, then the
            // version check in restore reports the typed error.
            trace_hash: match v.get("trace_hash") {
                None | Some(Json::Null) => String::new(),
                Some(h) => h
                    .as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| bad("non-string checkpoint field \"trace_hash\""))?,
            },
            trace_csv: match v.take("trace_csv") {
                Some(Json::Str(csv)) => csv,
                _ => return Err(bad("missing or non-string checkpoint field \"trace_csv\"")),
            },
        })
    }
}

/// The file name a session's checkpoint is written under inside the
/// server's checkpoint directory, or `None` when the session name
/// cannot be used as a path component safely (checkpoint names are
/// analyst input; a name like `../x` must never escape the directory).
pub fn checkpoint_file_name(session: &str) -> Option<String> {
    if session.is_empty()
        || session.len() > 128
        || !session
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        || session.starts_with('.')
    {
        return None;
    }
    Some(format!("{session}.ckpt.json"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use viva_trace::{ContainerKind, TraceBuilder};

    fn sample_session() -> AnalysisSession {
        let mut b = TraceBuilder::new();
        let power = b.metric("power", "MFlop/s");
        for cn in ["c1", "c2"] {
            let cl = b.new_container(b.root(), cn, ContainerKind::Cluster).unwrap();
            for i in 0..2 {
                let h = b
                    .new_container(cl, format!("{cn}-h{i}"), ContainerKind::Host)
                    .unwrap();
                b.set_variable(0.0, h, power, 100.0 + i as f64).unwrap();
            }
        }
        AnalysisSession::builder(b.finish(10.0)).build()
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let mut s = sample_session();
        let c1 = s.trace().containers().by_name("c1").unwrap().id();
        s.collapse(c1).unwrap();
        s.relax(25);
        s.try_set_time_slice(1.0, 7.0).unwrap();
        s.scaling_mut().set_slider("power", 2.0);
        let ckpt = SessionCheckpoint::capture("a", &s);
        let line = ckpt.encode();
        let back = SessionCheckpoint::decode(&line).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.encode(), line, "stable re-encode");
    }

    #[test]
    fn restore_is_render_identical_and_a_fixed_point() {
        let mut s = sample_session();
        let c2 = s.trace().containers().by_name("c2").unwrap().id();
        s.collapse(c2).unwrap();
        s.relax(40);
        let h = s.trace().containers().by_name("c1-h0").unwrap().id();
        s.drag(h, viva_layout::Vec2::new(17.5, -3.25)).unwrap();
        s.try_set_time_slice(2.0, 9.0).unwrap();

        let ckpt = SessionCheckpoint::capture("a", &s);
        let restored = ckpt
            .restore(ResourceBudget::default(), Recorder::disabled())
            .unwrap();
        let vp = viva::Viewport::new(640.0, 480.0);
        assert_eq!(restored.render(&vp), s.render(&vp), "render bytes must survive restore");
        assert_eq!(restored.revision(), s.revision());
        // Fixed point: checkpointing the restored session reproduces
        // the original checkpoint byte for byte.
        let again = SessionCheckpoint::capture("a", &restored);
        assert_eq!(again.encode(), ckpt.encode());
    }

    #[test]
    fn hostile_checkpoints_are_rejected_with_typed_errors() {
        let s = sample_session();
        let good = SessionCheckpoint::capture("a", &s);
        let budget = ResourceBudget::default;

        let mut wrong_version = good.clone();
        wrong_version.version = 99;
        assert!(matches!(
            wrong_version.restore(budget(), Recorder::disabled()),
            Err(RestoreError::Version { found: 99 })
        ));

        let mut bad_trace = good.clone();
        bad_trace.trace_csv = "not a trace".into();
        bad_trace.trace_hash = hash_token(content_hash(b"not a trace"));
        assert!(matches!(
            bad_trace.restore(budget(), Recorder::disabled()),
            Err(RestoreError::Trace(_))
        ));

        let mut tampered = good.clone();
        tampered.trace_csv.push_str("# tampered\n");
        assert!(
            matches!(
                tampered.restore(budget(), Recorder::disabled()),
                Err(RestoreError::Trace(m)) if m.contains("hash mismatch")
            ),
            "CSV edited under a stale hash must be rejected"
        );

        let mut bad_collapse = good.clone();
        bad_collapse.collapsed = vec![999];
        assert!(matches!(
            bad_collapse.restore(budget(), Recorder::disabled()),
            Err(RestoreError::State(_))
        ));

        let mut bad_place = good.clone();
        bad_place.placements[0].x = f64::NAN;
        assert!(matches!(
            bad_place.restore(budget(), Recorder::disabled()),
            Err(RestoreError::State(_))
        ));

        let mut bad_slider = good.clone();
        bad_slider.scaling = vec![("power".into(), -1.0)];
        assert!(matches!(
            bad_slider.restore(budget(), Recorder::disabled()),
            Err(RestoreError::State(_))
        ));
    }

    #[test]
    fn shared_restore_is_render_identical_to_full_restore() {
        let mut s = sample_session();
        let c1 = s.trace().containers().by_name("c1").unwrap().id();
        s.collapse(c1).unwrap();
        s.relax(30);
        s.try_set_time_slice(1.0, 8.0).unwrap();
        let ckpt = SessionCheckpoint::capture("a", &s);

        let relinked = ckpt
            .restore_shared(s.shared_trace(), s.shared_index(), Recorder::disabled())
            .unwrap();
        let vp = viva::Viewport::new(640.0, 480.0);
        assert_eq!(relinked.render(&vp), s.render(&vp));
        assert_eq!(relinked.revision(), s.revision());
        // The re-linked session shares the trace, not a copy.
        assert!(Arc::ptr_eq(&relinked.shared_trace(), &s.shared_trace()));
        // Fixed point holds on the shared path too.
        assert_eq!(SessionCheckpoint::capture("a", &relinked).encode(), ckpt.encode());
    }

    #[test]
    fn shared_restore_refuses_degraded_checkpoints() {
        let s = sample_session();
        let mut ckpt = SessionCheckpoint::capture("a", &s);
        ckpt.ingest_dropped = 3;
        assert!(matches!(
            ckpt.restore_shared(s.shared_trace(), None, Recorder::disabled()),
            Err(RestoreError::State(_))
        ));
    }

    #[test]
    fn journal_link_round_trips_and_v2_checkpoints_still_restore() {
        let s = sample_session();
        let mut ckpt = SessionCheckpoint::capture("a", &s);
        assert_eq!(ckpt.version, CHECKPOINT_VERSION);
        assert_eq!(ckpt.journal, None);
        ckpt.journal = Some(("a".into(), 41));
        let line = ckpt.encode();
        let back = SessionCheckpoint::decode(&line).unwrap();
        assert_eq!(back.journal, Some(("a".into(), 41)));
        assert_eq!(back.encode(), line, "stable re-encode with a journal link");
        // A version-2 checkpoint (no journal member) still restores.
        let mut v2 = SessionCheckpoint::capture("a", &s);
        v2.version = 2;
        assert!(v2.restore(ResourceBudget::default(), Recorder::disabled()).is_ok());
        // Version 1 stays rejected.
        let mut v1 = SessionCheckpoint::capture("a", &s);
        v1.version = 1;
        assert!(matches!(
            v1.restore(ResourceBudget::default(), Recorder::disabled()),
            Err(RestoreError::Version { found: 1 })
        ));
    }

    #[test]
    fn checkpoint_file_names_are_path_safe() {
        assert_eq!(checkpoint_file_name("demo"), Some("demo.ckpt.json".into()));
        assert_eq!(checkpoint_file_name("a-b_c.1"), Some("a-b_c.1.ckpt.json".into()));
        for bad in ["", "../x", "a/b", "a\\b", ".hidden", "a b", "a\nb", &"x".repeat(200)] {
            assert_eq!(checkpoint_file_name(bad), None, "{bad:?}");
        }
    }
}
