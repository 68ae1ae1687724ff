//! The closed-loop analyst of the in-process workloads: one client, no
//! think time. Each interaction is a command followed by the render
//! that shows its result, timed together.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::exec::Exec;
use crate::util::{iq_mean, mean, median, metric, ms, peak_rss_mb, percentile, Metric};

/// Latency samples of one run, milliseconds, and frame sizes in bytes.
#[derive(Debug, Default)]
pub struct Samples {
    /// Every timed operation (interaction, or append for live-tcp).
    pub ops: Vec<f64>,
    pub slice: Vec<f64>,
    pub regroup: Vec<f64>,
    /// Render calls alone.
    pub frames: Vec<f64>,
    pub frame_bytes: Vec<f64>,
    /// Per-kind samples the report prints beside the end-to-end set.
    pub by_kind: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    pub fn frame(&mut self, t_ms: f64, response: &str) {
        self.frames.push(t_ms);
        self.frame_bytes.push(response.len() as f64);
    }

    /// The end-to-end metrics every workload reports, in
    /// `BENCHMARK.json` order: latencies as interquartile means, set-up
    /// as a median. `ops_per_s` is the workload's closed-loop capacity.
    pub fn end_to_end(&self, setups_s: &[f64], ops_per_s: f64) -> Vec<Metric> {
        vec![
            metric("setup_s", median(setups_s), "s"),
            metric("op_ms", iq_mean(&self.ops), "ms"),
            metric("ops_per_s", ops_per_s, "1/s"),
            metric("slice_ms", iq_mean(&self.slice), "ms"),
            metric("regroup_ms", iq_mean(&self.regroup), "ms"),
            metric("frame_ms", iq_mean(&self.frames), "ms"),
            metric("frame_kb", mean(&self.frame_bytes) / 1024.0, "KB"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }

    /// The tails, which the report prints beside the end-to-end set.
    pub fn tails(&self) -> Vec<Metric> {
        vec![
            metric("op_p95_ms", percentile(&self.ops, 95.0), "ms"),
            metric("frame_p95_ms", percentile(&self.frames, 95.0), "ms"),
        ]
    }

    pub fn kind_p50(&self, kind: &str) -> f64 {
        self.by_kind.get(kind).map_or(0.0, |v| median(v))
    }

    pub fn counts(&self) -> String {
        let kinds: Vec<String> = self
            .by_kind
            .iter()
            .map(|(k, v)| format!("{k} {}", v.len()))
            .collect();
        format!(
            "{} timed operations ({}), {} frames",
            self.ops.len(),
            kinds.join(", "),
            self.frames.len()
        )
    }
}

/// What kind of interaction a step is, for the per-kind medians.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Slice,
    Regroup,
    Other(&'static str),
}

pub struct Analyst<'a> {
    pub exec: &'a mut Exec,
    pub samples: Samples,
    /// Seconds spent inside timed interactions.
    pub busy_s: f64,
}

impl<'a> Analyst<'a> {
    pub fn new(exec: &'a mut Exec) -> Analyst<'a> {
        Analyst {
            exec,
            samples: Samples::default(),
            busy_s: 0.0,
        }
    }

    /// One interaction: `cmd`, then `render`; returns both responses.
    pub fn step(&mut self, kind: Kind, cmd: &str, render: &str) -> (String, String) {
        let t0 = Instant::now();
        let answer = self.exec.call(cmd);
        let t1 = Instant::now();
        let frame = self.exec.call(render);
        let total = ms(t0.elapsed());
        self.samples.frame(ms(t1.elapsed()), &frame);
        self.book(kind, total);
        (answer, frame)
    }

    /// An interaction that is a render alone (a camera move).
    pub fn render(&mut self, kind: Kind, render: &str) -> String {
        let t0 = Instant::now();
        let frame = self.exec.call(render);
        let t = ms(t0.elapsed());
        self.samples.frame(t, &frame);
        self.book(kind, t);
        frame
    }

    fn book(&mut self, kind: Kind, t_ms: f64) {
        self.busy_s += t_ms / 1e3;
        self.samples.ops.push(t_ms);
        let name = match kind {
            Kind::Slice => {
                self.samples.slice.push(t_ms);
                "slice"
            }
            Kind::Regroup => {
                self.samples.regroup.push(t_ms);
                "regroup"
            }
            Kind::Other(name) => name,
        };
        self.samples.by_kind.entry(name).or_default().push(t_ms);
    }

    pub fn ops_per_s(&self) -> f64 {
        self.samples.ops.len() as f64 / self.busy_s.max(1e-9)
    }
}

/// A camera-less render request.
pub fn render_line(session: &str, width: u32, height: u32) -> String {
    format!(
        r#"{{"cmd":"render","session":"{session}","width":{width},"height":{height},"theme":"light","labels":false}}"#
    )
}

/// A level-of-detail render request.
pub fn camera_line(session: &str, zoom: f64, pan_x: f64, pan_y: f64) -> String {
    format!(
        r#"{{"cmd":"render","session":"{session}","width":1200,"height":900,"theme":"light","labels":false,"zoom":{zoom},"pan_x":{pan_x},"pan_y":{pan_y}}}"#
    )
}

pub fn slice_line(session: &str, start: f64, end: f64) -> String {
    format!(r#"{{"cmd":"set_time_slice","session":"{session}","start":{start:?},"end":{end:?}}}"#)
}

pub fn aggregate_line(session: &str, metric: &str, group: &str) -> String {
    format!(r#"{{"cmd":"aggregate","session":"{session}","metric":"{metric}","group":"{group}"}}"#)
}

pub fn group_line(cmd: &str, session: &str, container: &str) -> String {
    format!(r#"{{"cmd":"{cmd}","session":"{session}","container":"{container}"}}"#)
}
