//! Observability-overhead benchmark — the cost of watching.
//!
//! `viva-obs` promises to be *zero-cost when disabled* and cheap when
//! enabled: the no-op `Recorder` leaves every layer on its original
//! uninstrumented path, and the enabled recorder adds only relaxed
//! atomic tallies and span timestamps. This harness puts a number on
//! "cheap": the same closed-loop protocol workload as `fig_server`
//! (slice → fresh render → repeat render → aggregate → relax) is
//! driven through [`viva_server::Server::handle_line`] twice — once on
//! a metrics-off server, once on a metrics-on server — and the
//! command throughputs are compared.
//!
//! The loop has **no think time**: think gaps would hide the
//! instrumentation cost we are here to measure.
//!
//! Three configurations run: metrics off, metrics on, and metrics plus
//! **1-in-16 sampled span tracing** (the `--self-trace` shape). A
//! *triple* opens one server per configuration and interleaves them
//! round by round, rotating which goes first, until every server has
//! spent at least a second (full mode) inside timed rounds; each
//! server's throughput is its timed commands over that time. Noise from
//! neighbouring processes then lands on all three alike, where replays
//! run one after another saw it land on whichever ran during a burst.
//! Each of 11 triples yields two ratios (metrics on / off, traced /
//! metrics on), and the gates read their **medians**.
//! Full mode asserts the metrics-on server keeps at least **95%** of
//! the no-op throughput and the tracing server keeps at least **95%**
//! of the spans-off (metrics-on) throughput — the < 5% regression
//! gates from the design — and writes `BENCH_obs.json`; `--small` keeps the
//! correctness checks — including that the instrumented run really did
//! count its commands and the traced run really did record span trees
//! — but skips timing claims.

use std::time::Instant;

use viva::Theme;
use viva_bench::{grid_trace_csv, percentile};
use viva_obs::{Recorder, Tracer};
use viva_server::protocol::{Command, Response};
use viva_server::{Server, ServerLimits};
use viva_trace::RecoveryMode;

#[derive(Clone, Copy)]
struct Scale {
    clusters: usize,
    hosts: usize,
    steps: usize,
    /// Timed rounds per server, at least.
    rounds: usize,
    /// Seconds each server spends in timed rounds, at least.
    min_secs: f64,
    /// Timed (Off, Metrics, Traced) triples.
    triples: usize,
}

const FULL: Scale =
    Scale { clusters: 4, hosts: 12, steps: 80, rounds: 60, min_secs: 1.0, triples: 11 };
const SMALL: Scale =
    Scale { clusters: 2, hosts: 3, steps: 10, rounds: 4, min_secs: 0.0, triples: 1 };

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Disabled recorder, disabled tracer: the original hot path.
    Off,
    /// Enabled recorder, spans off.
    Metrics,
    /// Enabled recorder plus a 1-in-16 deterministic sampling tracer.
    Traced,
}

/// One configuration's server in a triple, with its tallies.
struct Replay {
    mode: Mode,
    server: Server,
    /// Every command sent, set-up included (what the counters saw).
    sent: u64,
    /// Commands sent inside timed rounds, and the time they took.
    timed: u64,
    secs: f64,
}

impl Replay {
    /// A fresh server in `mode` with the trace loaded and settled
    /// (untimed set-up).
    fn open(mode: Mode, csv: &str) -> Replay {
        let server = match mode {
            Mode::Off => Server::new(ServerLimits::default()),
            Mode::Metrics => Server::with_metrics(ServerLimits::default()),
            Mode::Traced => Server::with_observability(
                ServerLimits::default(),
                Recorder::enabled().with_tracer(Tracer::enabled(1, 42, 16)),
            ),
        };
        let mut r = Replay { mode, server, sent: 0, timed: 0, secs: 0.0 };
        r.send(&Command::LoadTrace {
            session: "bench".into(),
            mode: RecoveryMode::Strict,
            text: csv.to_owned(),
            trace: None,
        });
        r.send(&Command::Relax { session: "bench".into(), steps: 50 });
        r
    }

    fn send(&mut self, cmd: &Command) -> String {
        let line = cmd.encode();
        let resp = self.server.handle_line(&line).expect("non-blank command line");
        assert!(resp.starts_with("{\"ok\""), "command failed: {line} -> {resp}");
        self.sent += 1;
        resp
    }

    /// One timed round of the closed loop: slice, fresh render, repeat
    /// render, aggregate, relax.
    fn round(&mut self, round: usize, scale: &Scale) {
        let session = "bench".to_owned();
        let start = (round % scale.steps) as f64;
        let render = Command::Render {
            session: session.clone(),
            width: 800.0,
            height: 600.0,
            theme: Theme::Light,
            labels: false,
            zoom: None,
            pan_x: None,
            pan_y: None,
        };
        let slice = Command::SetTimeSlice {
            session: session.clone(),
            start,
            end: start + (scale.steps / 4).max(1) as f64,
        };
        let aggregate = Command::Aggregate {
            session: session.clone(),
            metric: "power_used".into(),
            group: "cl0".into(),
        };
        let relax = Command::Relax { session, steps: 5 };
        let (sent, t0) = (self.sent, Instant::now());
        self.send(&slice);
        let first = self.send(&render);
        let repeat = self.send(&render);
        self.send(&aggregate);
        self.send(&relax);
        self.secs += t0.elapsed().as_secs_f64();
        self.timed += self.sent - sent;
        assert!(first.contains("\"cached\":false"), "expected a fresh render");
        assert!(repeat.contains("\"cached\":true"), "expected a cache hit");
    }
}

/// One triple: the three configurations interleaved round by round
/// (rotating the order by `k` and the round) until each has run at
/// least `scale.rounds` rounds and `scale.min_secs` timed seconds.
/// Returns commands/sec per mode; verification (counters, span trees)
/// runs outside the timed rounds.
fn measure_triple(csv: &str, scale: &Scale, k: usize) -> [f64; 3] {
    let mut replays = [Mode::Off, Mode::Metrics, Mode::Traced].map(|m| Replay::open(m, csv));
    let mut round = 0;
    while round < scale.rounds || replays.iter().any(|r| r.secs < scale.min_secs) {
        for i in (0..3).map(|j| (j + k + round) % 3) {
            replays[i].round(round, scale);
        }
        round += 1;
    }
    replays.map(|r| {
        if r.mode != Mode::Off {
            check_counts(&r.server, r.sent);
        }
        if r.mode == Mode::Traced {
            check_spans(&r.server);
        }
        r.timed as f64 / r.secs.max(1e-9)
    })
}

/// Runs `scale.triples` triples after one untimed warmup triple and
/// returns each mode's throughputs in triple order.
fn measure_all(csv: &str, scale: &Scale) -> [Vec<f64>; 3] {
    let _ = measure_triple(csv, scale, 0);
    let mut rates: [Vec<f64>; 3] = Default::default();
    for k in 0..scale.triples {
        for (r, t) in rates.iter_mut().zip(measure_triple(csv, scale, k)) {
            r.push(t);
        }
    }
    rates
}

/// The median of `values`.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, 50.0)
}

/// The traced run must have actually recorded span trees — with 1-in-16
/// sampling over hundreds of commands, an empty ring means the tracer
/// was never wired, and the "overhead" being measured is of nothing.
fn check_spans(server: &Server) {
    let (spans, _dropped) = server.tracer().finished_spans();
    assert!(!spans.is_empty(), "sampled tracer recorded no spans");
    assert!(
        spans.iter().any(|s| s.parent != viva_obs::SpanId::NONE),
        "span trees have no phase children"
    );
    match server.execute(Command::Spans { session: None, limit: Some(4) }) {
        Response::Spans { spans, .. } => {
            assert!(!spans.is_empty(), "the spans command answered empty")
        }
        other => panic!("spans failed: {other:?}"),
    }
}

/// The instrumented run must have actually counted what it served —
/// otherwise the "overhead" being measured is of nothing.
fn check_counts(server: &Server, commands: u64) {
    match server.execute(Command::Stats { session: Some("bench".into()), reset: false }) {
        Response::Stats { server: block, session: Some(sess), .. } => {
            let total: u64 = block
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with("server.cmd."))
                .map(|(_, v)| *v)
                .sum();
            // +1: the stats command counts itself.
            assert_eq!(total, commands + 1, "per-command counters disagree");
            let hits = sess
                .stats
                .counters
                .iter()
                .find(|(n, _)| n == "cache.hits")
                .map(|(_, v)| *v);
            assert!(hits.is_some_and(|h| h > 0), "cache hits were not tallied");
        }
        other => panic!("stats failed: {other:?}"),
    }
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let scale = if small { SMALL } else { FULL };
    let csv = grid_trace_csv(scale.clusters, scale.hosts, scale.steps);
    println!(
        "Obs overhead: {} hosts, >= {} rounds and >= {} s timed per server, \
         median of {} triples ({} mode)",
        scale.clusters * scale.hosts,
        scale.rounds,
        scale.min_secs,
        scale.triples,
        if small { "smoke" } else { "full" }
    );

    let [off, on, tr] = measure_all(&csv, &scale);
    let pairs = |num: &[f64], den: &[f64]| -> Vec<f64> {
        num.iter().zip(den).map(|(n, d)| n / d.max(1e-9)).collect()
    };
    let (ratios, traced_ratios) = (pairs(&on, &off), pairs(&tr, &on));
    let spread = |r: &[f64]| {
        let (lo, hi) = r.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        format!("{:.1}-{:.1}%", lo * 100.0, hi * 100.0)
    };
    let (ratio, traced_ratio) = (median(ratios.clone()), median(traced_ratios.clone()));
    let (noop, instrumented, traced) = (median(off), median(on), median(tr));
    println!("  metrics off:     {noop:>8.0} cmd/s");
    println!(
        "  metrics on:      {instrumented:>8.0} cmd/s  ({:.1}% of no-op, triples {})",
        ratio * 100.0,
        spread(&ratios)
    );
    println!(
        "  + tracing 1/16:  {traced:>8.0} cmd/s  ({:.1}% of spans-off, triples {})",
        traced_ratio * 100.0,
        spread(&traced_ratios)
    );

    if small {
        println!("  smoke mode: counters and span trees verified, overhead not asserted");
        return;
    }

    assert!(
        ratio >= 0.95,
        "instrumentation costs more than 5% of throughput ({:.1}%)",
        (1.0 - ratio) * 100.0
    );
    assert!(
        traced_ratio >= 0.95,
        "sampled tracing costs more than 5% of the spans-off throughput ({:.1}%)",
        (1.0 - traced_ratio) * 100.0
    );

    let mut json = String::from("{\n  \"benchmark\": \"obs\",\n");
    json.push_str(&format!(
        "  \"trace\": {{ \"hosts\": {}, \"min_rounds\": {}, \"min_timed_secs\": {}, \"triples\": {} }},\n",
        scale.clusters * scale.hosts,
        scale.rounds,
        scale.min_secs,
        scale.triples
    ));
    json.push_str("  \"statistic\": \"median over triples\",\n");
    json.push_str(&format!(
        "  \"noop_commands_per_sec\": {noop:.0},\n  \"instrumented_commands_per_sec\": {instrumented:.0},\n  \"traced_commands_per_sec\": {traced:.0},\n  \"throughput_ratio\": {ratio:.4},\n  \"traced_ratio\": {traced_ratio:.4},\n  \"gate\": \"ratio >= 0.95 && traced_ratio >= 0.95\"\n}}\n"
    ));
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("  [json] BENCH_obs.json");
}
