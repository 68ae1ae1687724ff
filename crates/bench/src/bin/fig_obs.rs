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
//! instrumentation cost we are here to measure. Each configuration
//! runs three times and keeps its best throughput (the conventional
//! guard against scheduler noise in a gate that compares two runs).
//!
//! Three configurations run: metrics off, metrics on, and metrics plus
//! **1-in-16 sampled span tracing** (the `--self-trace` shape). Full
//! mode asserts the metrics-on server keeps at least **95%** of the
//! no-op throughput and the tracing server keeps at least **95%** of
//! the spans-off (metrics-on) throughput — the < 5% regression gates
//! from the design — and writes `BENCH_obs.json`; `--small` keeps the
//! correctness checks — including that the instrumented run really did
//! count its commands and the traced run really did record span trees
//! — but skips timing claims.

use std::time::Instant;

use viva::Theme;
use viva_bench::grid_trace_csv;
use viva_obs::{Recorder, Tracer};
use viva_server::protocol::{Command, Response};
use viva_server::{Server, ServerLimits};
use viva_trace::RecoveryMode;

#[derive(Clone, Copy)]
struct Scale {
    clusters: usize,
    hosts: usize,
    steps: usize,
    rounds: usize,
    repeats: usize,
}

const FULL: Scale = Scale { clusters: 4, hosts: 12, steps: 80, rounds: 60, repeats: 6 };
const SMALL: Scale = Scale { clusters: 2, hosts: 3, steps: 10, rounds: 4, repeats: 1 };

/// Drives the closed loop against one server. Returns commands issued.
fn drive(server: &Server, csv: &str, scale: &Scale) -> u64 {
    let mut commands = 0u64;
    let mut send = |cmd: &Command| -> String {
        let line = cmd.encode();
        let resp = server.handle_line(&line).expect("non-blank command line");
        assert!(resp.starts_with("{\"ok\""), "command failed: {line} -> {resp}");
        commands += 1;
        resp
    };
    let session = "bench".to_owned();
    send(&Command::LoadTrace {
        session: session.clone(),
        mode: RecoveryMode::Strict,
        text: csv.to_owned(),
        trace: None,
    });
    send(&Command::Relax { session: session.clone(), steps: 50 });
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
    for round in 0..scale.rounds {
        let start = (round % scale.steps) as f64;
        send(&Command::SetTimeSlice {
            session: session.clone(),
            start,
            end: start + (scale.steps / 4).max(1) as f64,
        });
        let first = send(&render);
        assert!(first.contains("\"cached\":false"), "expected a fresh render");
        let repeat = send(&render);
        assert!(repeat.contains("\"cached\":true"), "expected a cache hit");
        send(&Command::Aggregate {
            session: session.clone(),
            metric: "power_used".into(),
            group: "cl0".into(),
        });
        send(&Command::Relax { session: session.clone(), steps: 5 });
    }
    commands
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Disabled recorder, disabled tracer: the original hot path.
    Off,
    /// Enabled recorder, spans off.
    Metrics,
    /// Enabled recorder plus a 1-in-16 deterministic sampling tracer.
    Traced,
}

/// One timed replay of the workload on a fresh server in `mode`,
/// returning commands/sec. Verification (counters, span trees) runs
/// outside the timed window.
fn measure_once(mode: Mode, csv: &str, scale: &Scale) -> f64 {
    let server = match mode {
        Mode::Off => Server::new(ServerLimits::default()),
        Mode::Metrics => Server::with_metrics(ServerLimits::default()),
        Mode::Traced => Server::with_observability(
            ServerLimits::default(),
            Recorder::enabled().with_tracer(Tracer::enabled(1, 42, 16)),
        ),
    };
    let t0 = Instant::now();
    let commands = drive(&server, csv, scale);
    let wall = t0.elapsed().as_secs_f64();
    if mode != Mode::Off {
        check_counts(&server, commands);
    }
    if mode == Mode::Traced {
        check_spans(&server);
    }
    commands as f64 / wall.max(1e-9)
}

/// Best-of-`repeats` for all three modes, repeats interleaved
/// round-robin (Off, Metrics, Traced, Off, …) after one untimed
/// warmup — sequential per-mode blocks would let thermal and
/// scheduler drift masquerade as instrumentation overhead.
fn measure_all(csv: &str, scale: &Scale) -> (f64, f64, f64) {
    let _ = measure_once(Mode::Off, csv, scale);
    let mut best = [0.0f64; 3];
    for _ in 0..scale.repeats {
        for (i, mode) in [Mode::Off, Mode::Metrics, Mode::Traced].into_iter().enumerate() {
            best[i] = best[i].max(measure_once(mode, csv, scale));
        }
    }
    (best[0], best[1], best[2])
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
        "Obs overhead: {} hosts, {} rounds, best of {} ({} mode)",
        scale.clusters * scale.hosts,
        scale.rounds,
        scale.repeats,
        if small { "smoke" } else { "full" }
    );

    let (noop, instrumented, traced) = measure_all(&csv, &scale);
    let ratio = instrumented / noop.max(1e-9);
    let traced_ratio = traced / instrumented.max(1e-9);
    println!("  metrics off:     {noop:>8.0} cmd/s");
    println!("  metrics on:      {instrumented:>8.0} cmd/s  ({:.1}% of no-op)", ratio * 100.0);
    println!(
        "  + tracing 1/16:  {traced:>8.0} cmd/s  ({:.1}% of spans-off)",
        traced_ratio * 100.0
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
        "  \"trace\": {{ \"hosts\": {}, \"rounds\": {}, \"repeats\": {} }},\n",
        scale.clusters * scale.hosts,
        scale.rounds,
        scale.repeats
    ));
    json.push_str(&format!(
        "  \"noop_commands_per_sec\": {noop:.0},\n  \"instrumented_commands_per_sec\": {instrumented:.0},\n  \"traced_commands_per_sec\": {traced:.0},\n  \"throughput_ratio\": {ratio:.4},\n  \"traced_ratio\": {traced_ratio:.4},\n  \"gate\": \"ratio >= 0.95 && traced_ratio >= 0.95\"\n}}\n"
    ));
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("  [json] BENCH_obs.json");
}
