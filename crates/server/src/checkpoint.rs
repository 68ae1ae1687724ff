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
//! Decoding reads through the protocol's field readers, with errors
//! naming a `checkpoint field`.
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

use crate::json::{self, At, FromWire, Json, Members, ObjectWriter, ToWire};
use crate::protocol::{wire_struct, DecodeError};
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

wire_struct! {
    /// Position and pin state of one visible node.
    #[derive(Debug, Clone, PartialEq)]
    pub struct NodePlacement {
        /// Container index (stable across the canonical CSV round trip).
        #[wire = "c"]
        pub container: u64,
        /// Layout x coordinate.
        pub x: f64,
        /// Layout y coordinate.
        pub y: f64,
        /// Whether the node is pinned (dragged and not yet released).
        #[wire = "pin"]
        pub pinned: bool,
    }
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
        let mut trace = report.trace;
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
        index: Arc<AggIndex>,
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
        let mut analysis =
            AnalysisSession::builder(trace).shared_index(index).recorder(recorder).build();
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
        json::encode(self)
    }

    /// Parses a checkpoint from its canonical JSON line.
    pub fn decode(line: &str) -> Result<SessionCheckpoint, DecodeError> {
        json::decode(line, "checkpoint")
    }
}

impl ToWire for SessionCheckpoint {
    fn write(&self, out: &mut String) {
        ObjectWriter::write(out, |o| {
            o.value("version", &self.version);
            o.value("session", &self.session);
            o.value("revision", &self.revision);
            o.object("slice", |o| {
                o.value("start", &self.slice_start);
                o.value("end", &self.slice_end);
            });
            o.value("collapsed", &self.collapsed);
            o.object("forces", |o| {
                o.value("repulsion", &self.forces.0);
                o.value("spring", &self.forces.1);
                o.value("damping", &self.forces.2);
            });
            o.map("scaling", &self.scaling);
            o.value("nodes", &self.placements);
            o.value("quarantined", &self.quarantined);
            o.value("ingest_dropped", &self.ingest_dropped);
            // Optional member: absent for batch sessions, so version-3
            // checkpoints of non-streaming sessions are byte-identical to
            // version-2 ones apart from the version number.
            if let Some((id, last_seq)) = &self.journal {
                o.object("journal", |o| {
                    o.value("id", id);
                    o.value("last_seq", last_seq);
                });
            }
            o.value("trace_hash", &self.trace_hash);
            o.value("trace_csv", &self.trace_csv);
        });
    }
}

impl FromWire for SessionCheckpoint {
    /// Moves the trace CSV out of the parsed line rather than copying it.
    fn read(v: Json, at: At<'_>) -> Result<SessionCheckpoint, DecodeError> {
        let mut m = Members::read(v, at)?.scoped("checkpoint ");
        let (version, session, revision) =
            (m.field("version")?, m.field("session")?, m.field("revision")?);
        let mut slice: Members = m.field("slice")?;
        let (slice_start, slice_end) = (slice.field("start")?, slice.field("end")?);
        let collapsed = m.field("collapsed")?;
        let mut forces: Members = m.field("forces")?;
        Ok(SessionCheckpoint {
            version,
            session,
            revision,
            slice_start,
            slice_end,
            collapsed,
            forces: (forces.field("repulsion")?, forces.field("spring")?, forces.field("damping")?),
            scaling: m.map("scaling")?,
            placements: m.field("nodes")?,
            quarantined: m.field("quarantined")?,
            ingest_dropped: m.field("ingest_dropped")?,
            journal: match m.field::<Option<Members>>("journal")? {
                Some(mut j) => Some((j.field("id")?, j.field("last_seq")?)),
                None => None,
            },
            // Absent on version-1 checkpoints; they decode, then the
            // version check in restore reports the typed error.
            trace_hash: m.field::<Option<String>>("trace_hash")?.unwrap_or_default(),
            trace_csv: m.field("trace_csv")?,
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
            .restore_shared(s.shared_trace(), s.shared_index().unwrap(), Recorder::disabled())
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
            ckpt.restore_shared(s.shared_trace(), s.shared_index().unwrap(), Recorder::disabled()),
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
