//! How a workload sends its commands. Untraced, a line goes through
//! `Server::handle_line` and nothing else is timed. Traced, the same
//! line is decoded, executed and encoded in three timed calls, and a
//! mirror session owned by the benchmark replays the command through
//! the public functions of each crate, timing every call from outside.
//! What the server spent beyond those calls is `server.unattributed_ms`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use viva::{svg, AnalysisSession, Camera, Viewport};
use viva_agg::AggIndex;
use viva_server::{Command, Response, Server};
use viva_trace::journal::{JournalConfig, JournalWriter};
use viva_trace::{ContainerId, MetricId, ResourceBudget, TraceLoader};

use crate::util::{median, metric, Metric, Tally};

/// Per-layer metrics, in `BENCHMARK.json` order: name, unit, and the
/// scale from seconds (1 for counts and ratios, which are stored as
/// they are).
pub const LAYERS: [(&str, &str, f64); 23] = [
    ("simflow.run_s", "s", 1.0),
    ("trace.parse_ms", "ms", 1e3),
    ("trace.export_ms", "ms", 1e3),
    ("trace.journal_append_us", "us", 1e6),
    ("trace.journal_recover_ms", "ms", 1e3),
    ("agg.build_ms", "ms", 1e3),
    ("agg.query_us", "us", 1e6),
    ("agg.insert_us", "us", 1e6),
    ("layout.step_ms", "ms", 1e3),
    ("layout.nodes", "count", 1.0),
    ("core.slice_ms", "ms", 1e3),
    ("core.regroup_ms", "ms", 1e3),
    ("core.view_ms", "ms", 1e3),
    ("core.svg_ms", "ms", 1e3),
    ("core.lod_cut_ms", "ms", 1e3),
    ("core.tiles", "count", 1.0),
    ("core.nodes_drawn", "count", 1.0),
    ("server.decode_us", "us", 1e6),
    ("server.upload_decode_ms", "ms", 1e3),
    ("server.encode_ms", "ms", 1e3),
    ("server.cache_hit_ratio", "ratio", 1.0),
    ("server.unattributed_ms", "ms", 1e3),
    ("server.tcp_ms", "ms", 1e3),
];

/// Samples per layer metric (seconds for timings). A metric is the
/// mean of its samples: the time a layer was busy per call. A layer
/// the workload never calls reports 0.
#[derive(Debug, Default)]
pub struct Layers {
    samples: HashMap<&'static str, (f64, u64)>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        let e = self.samples.entry(name).or_default();
        e.0 += value;
        e.1 += 1;
    }

    pub fn time(&mut self, name: &'static str, d: Duration) -> f64 {
        let s = d.as_secs_f64();
        self.add(name, s);
        s
    }

    /// Folds in the samples of an earlier set-up.
    pub fn absorb(&mut self, other: Layers) {
        for (name, (sum, n)) in other.samples {
            let e = self.samples.entry(name).or_default();
            e.0 += sum;
            e.1 += n;
        }
    }

    /// Replaces a metric by one computed elsewhere.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.samples.insert(name, (value, 1));
    }

    pub fn report(&self) -> Vec<Metric> {
        LAYERS
            .iter()
            .map(|&(name, unit, scale)| {
                let v = self
                    .samples
                    .get(name)
                    .map_or(0.0, |&(sum, n)| sum / n as f64);
                metric(name, v * scale, unit)
            })
            .collect()
    }
}

/// Times `f`, books it under `name`, and returns its result.
fn timed<T>(layers: &mut Layers, spent: &mut f64, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *spent += layers.time(name, t.elapsed());
    out
}

/// One mirrored session: the benchmark's own `AnalysisSession` over the
/// same trace, and the name lookups the wire commands need.
struct MirrorSession {
    session: AnalysisSession,
    by_file_id: HashMap<u64, ContainerId>,
    metrics_by_file_id: HashMap<u64, MetricId>,
    journal: Option<JournalWriter>,
}

impl MirrorSession {
    fn open(text: &str, lenient: bool, layers: &mut Layers, spent: &mut f64) -> MirrorSession {
        let mut loader = TraceLoader::new().budget(ResourceBudget::unlimited());
        if lenient {
            loader = loader.lenient();
        }
        let report = timed(layers, spent, "trace.parse_ms", || loader.load_str(text))
            .expect("the mirror loads what the server loaded");
        let trace = Arc::new(report.trace);
        let index = timed(layers, spent, "agg.build_ms", || AggIndex::build(&trace));
        let session = AnalysisSession::builder(Arc::clone(&trace))
            .shared_index(Arc::new(index))
            .build();
        // File ids of the interchange text → ids of the loaded trace,
        // through one name map (`by_name` is a linear scan, too slow
        // once per container of the 100k-host grid).
        let mut by_name = HashMap::new();
        for c in trace.containers().iter() {
            by_name.entry(c.name()).or_insert(c.id());
        }
        let mut by_file_id = HashMap::new();
        let mut metrics_by_file_id = HashMap::new();
        for line in text.lines() {
            let f: Vec<&str> = line.splitn(5, ',').collect();
            match f[0] {
                "container" => {
                    if let (Ok(id), Some(&c)) = (f[1].parse(), by_name.get(f[4])) {
                        by_file_id.insert(id, c);
                    }
                }
                "metric" => {
                    let name = line.splitn(4, ',').nth(3).unwrap_or("");
                    if let (Ok(id), Some(m)) = (f[1].parse(), trace.metric_id(name)) {
                        metrics_by_file_id.insert(id, m);
                    }
                }
                _ => {}
            }
        }
        MirrorSession {
            session,
            by_file_id,
            metrics_by_file_id,
            journal: None,
        }
    }

    fn id(&self, name: &str) -> ContainerId {
        self.session
            .trace()
            .containers()
            .by_name(name)
            .expect("container exists")
            .id()
    }
}

/// Replays commands on mirror sessions, timing each crate call.
pub struct Mirror {
    sessions: HashMap<String, MirrorSession>,
    journal_dir: PathBuf,
    pub layers: Layers,
    renders: u64,
    hits: u64,
    /// `Server::execute` time minus the mirrored layer calls, per
    /// command, s. Reported as a median: the two sides time the same
    /// work apart, and on the 20 s expand of zoom-100k their difference
    /// is seconds of either sign, which would swamp a mean.
    unattributed: Vec<f64>,
}

impl Mirror {
    pub fn new(journal_dir: PathBuf) -> Mirror {
        Mirror {
            sessions: HashMap::new(),
            journal_dir,
            layers: Layers::default(),
            renders: 0,
            hits: 0,
            unattributed: Vec::new(),
        }
    }

    /// Replays `cmd` (whose server answer was `resp`); returns the
    /// seconds spent inside timed crate calls.
    pub fn apply(&mut self, cmd: &Command, resp: &Response) -> f64 {
        let mut spent = 0.0;
        let layers = &mut self.layers;
        if matches!(resp, Response::Error { .. }) {
            return 0.0;
        }
        match cmd {
            Command::LoadTrace {
                session,
                text,
                mode,
                ..
            } => {
                let m = MirrorSession::open(
                    text,
                    *mode == viva_trace::RecoveryMode::Lenient,
                    layers,
                    &mut spent,
                );
                let trace = m.session.shared_trace();
                timed(layers, &mut spent, "trace.export_ms", || {
                    viva_trace::export::to_csv(&trace).len()
                });
                self.sessions.insert(session.clone(), m);
            }
            Command::Attach { session, trace } => {
                // A fresh session over the same trace and index, as the
                // server builds it (untimed: no layer metric covers it).
                let m = self.sessions.get(trace).expect("mirrored trace");
                let mut builder = AnalysisSession::builder(m.session.shared_trace());
                if let Some(index) = m.session.shared_index() {
                    builder = builder.shared_index(index);
                }
                let fresh = MirrorSession {
                    session: builder.build(),
                    by_file_id: HashMap::new(),
                    metrics_by_file_id: HashMap::new(),
                    journal: None,
                };
                self.sessions.insert(session.clone(), fresh);
            }
            Command::SetTimeSlice {
                session,
                start,
                end,
            } => {
                let m = self.sessions.get_mut(session).expect("mirrored session");
                let _ = timed(layers, &mut spent, "core.slice_ms", || {
                    m.session.try_set_time_slice(*start, *end)
                });
            }
            Command::Collapse { session, container } | Command::Expand { session, container } => {
                let m = self.sessions.get_mut(session).expect("mirrored session");
                let id = m.id(container);
                let collapse = matches!(cmd, Command::Collapse { .. });
                let _ = timed(layers, &mut spent, "core.regroup_ms", || {
                    if collapse {
                        m.session.collapse(id)
                    } else {
                        m.session.expand(id)
                    }
                });
            }
            Command::CollapseAtDepth { session, depth } => {
                let m = self.sessions.get_mut(session).expect("mirrored session");
                timed(layers, &mut spent, "core.regroup_ms", || {
                    m.session.collapse_at_depth(*depth)
                });
            }
            Command::ExpandAll { session } => {
                let m = self.sessions.get_mut(session).expect("mirrored session");
                timed(layers, &mut spent, "core.regroup_ms", || {
                    m.session.expand_all()
                });
            }
            Command::Relax { session, steps } => {
                let m = self.sessions.get_mut(session).expect("mirrored session");
                let t = Instant::now();
                let ran = m.session.relax(*steps as usize).max(1);
                let d = t.elapsed();
                spent += d.as_secs_f64();
                for _ in 0..ran {
                    layers.add("layout.step_ms", d.as_secs_f64() / ran as f64);
                }
                layers.add("layout.nodes", m.session.layout().len() as f64);
            }
            Command::Aggregate {
                session,
                metric,
                group,
            } => {
                let m = self.sessions.get_mut(session).expect("mirrored session");
                let id = m.id(group);
                let _ = timed(layers, &mut spent, "agg.query_us", || {
                    m.session.aggregate(metric, id)
                });
            }
            Command::Render {
                session,
                width,
                height,
                theme,
                labels,
                zoom,
                pan_x,
                pan_y,
            } => {
                self.renders += 1;
                if matches!(resp, Response::Frame { cached: true, .. }) {
                    self.hits += 1;
                    return 0.0;
                }
                let m = self.sessions.get_mut(session).expect("mirrored session");
                let mut vp = Viewport::new(*width, *height)
                    .with_theme(*theme)
                    .with_labels(*labels);
                let camera = zoom.is_some() || pan_x.is_some() || pan_y.is_some();
                if camera {
                    vp = vp.with_camera(Camera::new(
                        zoom.unwrap_or(1.0),
                        pan_x.unwrap_or(0.0),
                        pan_y.unwrap_or(0.0),
                    ));
                }
                let view = if camera {
                    let view = timed(layers, &mut spent, "core.lod_cut_ms", || {
                        m.session.view_lod(&vp)
                    });
                    layers.add("core.tiles", view.tiles.len() as f64);
                    view
                } else {
                    timed(layers, &mut spent, "core.view_ms", || m.session.view())
                };
                layers.add("core.nodes_drawn", view.nodes.len() as f64);
                let opts = svg::SvgOptions::from(&vp);
                timed(layers, &mut spent, "core.svg_ms", || {
                    svg::render(&view, &opts).len()
                });
            }
            Command::Append { session, seq, text } => {
                if !self.sessions.contains_key(session) {
                    let mut m = MirrorSession::open(text, true, layers, &mut spent);
                    let path = self.journal_dir.join(format!("{session}.journal"));
                    let config = JournalConfig {
                        sync_every: viva_server::ServerLimits::default().journal_sync_every,
                    };
                    m.journal = Some(
                        JournalWriter::create(&path, session, config).expect("mirror journal"),
                    );
                    self.sessions.insert(session.clone(), m);
                }
                let m = self.sessions.get_mut(session).expect("mirrored session");
                if let Some(j) = m.journal.as_mut() {
                    timed(layers, &mut spent, "trace.journal_append_us", || {
                        j.append(*seq, text)
                    })
                    .expect("mirror journal append");
                }
                if *seq == 1 {
                    return spent;
                }
                for line in text.lines() {
                    let f: Vec<&str> = line.split(',').collect();
                    if f.first() != Some(&"var") {
                        continue;
                    }
                    let (Ok(t), Ok(c), Ok(k), Ok(v)) = (
                        f[1].parse::<f64>(),
                        f[2].parse::<u64>(),
                        f[3].parse::<u64>(),
                        f[4].parse::<f64>(),
                    ) else {
                        continue;
                    };
                    let (Some(&c), Some(&k)) = (m.by_file_id.get(&c), m.metrics_by_file_id.get(&k))
                    else {
                        continue;
                    };
                    let _ = timed(layers, &mut spent, "agg.insert_us", || {
                        m.session.live_apply_sample(c, k, t, v)
                    });
                }
            }
            _ => {}
        }
        spent
    }

    /// Times recovering the mirror journal of `session`.
    pub fn recover(&mut self, session: &str) {
        let Some(m) = self.sessions.get_mut(session) else {
            return;
        };
        let Some(j) = m.journal.take() else { return };
        let path = j.path().to_path_buf();
        drop(j);
        let t = Instant::now();
        let config = JournalConfig {
            sync_every: viva_server::ServerLimits::default().journal_sync_every,
        };
        let (writer, _) = JournalWriter::recover(&path, config).expect("mirror journal recovers");
        self.layers.time("trace.journal_recover_ms", t.elapsed());
        m.journal = Some(writer);
    }

    /// Folds in the samples of a mirror from an earlier set-up or round.
    pub fn absorb(&mut self, other: Mirror) {
        self.layers.absorb(other.layers);
        self.unattributed.extend(other.unattributed);
        self.renders += other.renders;
        self.hits += other.hits;
    }

    pub fn finish(mut self) -> Layers {
        if !self.unattributed.is_empty() {
            self.layers
                .set("server.unattributed_ms", median(&self.unattributed));
        }
        if self.renders > 0 {
            self.layers.set(
                "server.cache_hit_ratio",
                self.hits as f64 / self.renders as f64,
            );
        }
        self.layers
    }
}

/// The command path of one workload: plain `handle_line`, or the traced
/// decode → execute → encode split with a mirror.
pub struct Exec {
    pub server: Arc<Server>,
    pub mirror: Option<Mirror>,
    pub tally: Tally,
    /// Traced only: seconds the last command spent in the server's own
    /// decode, execute and encode, without the mirror's replay.
    pub server_s: f64,
}

impl Exec {
    pub fn new(server: Arc<Server>, mirror: Option<Mirror>) -> Exec {
        Exec {
            server,
            mirror,
            tally: Tally::default(),
            server_s: 0.0,
        }
    }

    /// Sends one request line; returns the response line.
    pub fn call(&mut self, line: &str) -> String {
        let out = match self.mirror.as_mut() {
            None => self
                .server
                .handle_line(line)
                .expect("a request line gets a response"),
            Some(mirror) => {
                let t = Instant::now();
                let cmd = Command::decode(line).expect("the benchmark sends valid commands");
                let decode = t.elapsed().as_secs_f64();
                if matches!(cmd, Command::LoadTrace { .. }) {
                    mirror.layers.add("server.upload_decode_ms", decode);
                } else {
                    mirror.layers.add("server.decode_us", decode);
                }
                let (out, server_s) = traced_execute(&self.server, mirror, cmd);
                self.server_s = decode + server_s;
                out
            }
        };
        self.note(line, &out);
        out
    }

    /// Executes an already-built command without the wire decode (how
    /// set-up loads traces too large for the quadratic request parser).
    pub fn execute(&mut self, cmd: Command) -> String {
        let name = cmd.name();
        let out = match self.mirror.as_mut() {
            None => self.server.execute(cmd).encode(),
            Some(mirror) => {
                let (out, server_s) = traced_execute(&self.server, mirror, cmd);
                self.server_s = server_s;
                out
            }
        };
        self.tally.note(name, crate::util::kind(&out).is_ok());
        out
    }

    fn note(&mut self, line: &str, out: &str) {
        let name = crate::util::field(line, "cmd").unwrap_or("?").to_owned();
        let ok = crate::util::kind(out).is_ok();
        self.tally.note(&name, ok);
    }
}

/// Executes and encodes `cmd`, then replays it on the mirror; returns
/// the response line and the seconds of execute plus encode.
fn traced_execute(server: &Server, mirror: &mut Mirror, cmd: Command) -> (String, f64) {
    let replay = cmd.clone();
    let t = Instant::now();
    let resp = server.execute(cmd);
    let exec = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let out = resp.encode();
    let enc = t.elapsed().as_secs_f64();
    if matches!(resp, Response::Frame { .. }) {
        mirror.layers.add("server.encode_ms", enc);
    }
    let inside = mirror.apply(&replay, &resp);
    mirror.unattributed.push(exec - inside);
    (out, exec + enc)
}
