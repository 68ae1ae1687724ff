//! Resilience benchmark — what admission control buys under overload.
//!
//! The serving layer's overload promise (DESIGN.md §14) is *shed, don't
//! queue*: past `max_inflight_commands`, excess work is refused
//! immediately with a typed `overloaded` error and a retry hint, so
//! the commands that *are* admitted keep near-unloaded latency instead
//! of everyone sliding into a queueing collapse together.
//!
//! This harness drives the server in-process (no socket noise) with
//! closed-loop clients, one private session each:
//!
//! 1. **unloaded** — a single client, to establish the baseline render
//!    p50/p99;
//! 2. **2× offered load** — `2 × max_inflight` concurrent clients
//!    hammering with zero think time. Clients honour the server's
//!    `retry_after_ms` hint. Measured: the shed rate (must be
//!    non-zero: the gate is real) and the latency of *admitted*
//!    commands (p99 must stay ≤ 2× the unloaded p99: the gate
//!    protects the admitted);
//! 3. **restore latency** — the checkpoint→restore round-trip on the
//!    same trace, since recovery time bounds how fast a crashed or
//!    drained server is back in business.
//!
//! Full mode asserts the two claims and writes `BENCH_resilience.json`;
//! `--small` keeps the behaviour checks (some sheds under overload,
//! zero sheds unloaded, restore works) but skips timing claims and
//! leaves the committed JSON alone.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use viva::Theme;
use viva_bench::{grid_trace_csv, percentile};
use viva_server::{Command, ErrorKind, Response, Server, ServerLimits};
use viva_trace::RecoveryMode;

#[derive(Clone, Copy)]
struct Scale {
    clusters: usize,
    hosts: usize,
    steps: usize,
    rounds: usize,
    max_inflight: usize,
    restore_reps: usize,
    /// Closed-loop think time between rounds, milliseconds. Non-zero
    /// matters twice over: it models interactive analysts, and it keeps
    /// a co-located client from timeslicing against the server on a
    /// small host (a zero-think loop measures the OS scheduler, not
    /// admission control).
    think_ms: u64,
}

const FULL: Scale = Scale {
    clusters: 16,
    hosts: 16,
    steps: 40,
    rounds: 1200,
    max_inflight: 0,
    restore_reps: 10,
    think_ms: 2,
};
const SMALL: Scale = Scale {
    clusters: 2,
    hosts: 3,
    steps: 10,
    rounds: 8,
    max_inflight: 0,
    restore_reps: 2,
    think_ms: 1,
};

/// The in-flight gate, sized to the hardware like a deployment would
/// size it: admitted work should match available parallelism, nothing
/// beyond it (capped so the full run stays comparable across hosts).
fn gate_width() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4)
}

/// An admitted attempt's latency; shed attempts are retried after the
/// server's hint and the retry timed on its own (the shed path is the
/// fast path by design — timing it would flatter the numbers). Sheds
/// observed along the way are counted into `sheds`.
fn admitted(server: &Server, cmd: &Command, sheds: &mut u64) -> (String, f64) {
    let line = cmd.encode();
    loop {
        let t0 = Instant::now();
        let resp = server.handle_line(&line).expect("non-blank command");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        // Only shed responses are decoded: fully parsing every
        // megabyte frame response would burn client-side CPU that,
        // on a small host, competes with the very server work this
        // harness is timing. Shed lines are short.
        if !resp.starts_with("{\"err\":\"overloaded\"") {
            return (resp, ms);
        }
        match Response::decode(&resp) {
            Ok(Response::Error { kind: ErrorKind::Overloaded { retry_after_ms }, .. }) => {
                *sheds += 1;
                std::thread::sleep(std::time::Duration::from_millis(retry_after_ms.max(1)));
            }
            other => panic!("malformed shed response: {other:?}"),
        }
    }
}

/// Creates one client's session: load the trace and settle the layout.
/// Run sequentially before the measured phase — every real benchmark
/// excludes setup from its measurement window, and here the exclusion
/// also matters for fidelity: a megabyte `load_trace` line re-submitted
/// by shed clients would burn un-gated parse CPU that a steady-state
/// interactive fleet never generates.
fn setup(server: &Server, name: &str, csv: &str) {
    let mut sheds = 0u64;
    let (resp, _) = admitted(
        server,
        &Command::LoadTrace {
            session: name.to_owned(),
            mode: RecoveryMode::Strict,
            text: csv.to_owned(),
            trace: None,
        },
        &mut sheds,
    );
    assert!(resp.starts_with("{\"ok\""), "load failed: {resp}");
    admitted(server, &Command::Relax { session: name.to_owned(), steps: 50 }, &mut sheds);
    assert_eq!(sheds, 0, "sequential setup must never contend with itself");
}

/// One closed-loop client on its pre-loaded session: per round, slide
/// the slice (cache-busting) and render, retrying shed attempts after
/// the server's `retry_after_ms` hint. Returns (admitted render
/// latencies in ms, admitted slice latencies in ms, sheds observed).
fn drive(server: &Server, name: &str, scale: &Scale) -> (Vec<f64>, Vec<f64>, u64) {
    let mut sheds = 0u64;
    let mut renders = Vec::with_capacity(scale.rounds);
    let mut slices = Vec::with_capacity(scale.rounds);
    for round in 0..scale.rounds {
        let start = (round % scale.steps) as f64;
        let (_, slice_ms) = admitted(
            server,
            &Command::SetTimeSlice {
                session: name.to_owned(),
                start,
                end: start + (scale.steps / 4).max(1) as f64,
            },
            &mut sheds,
        );
        slices.push(slice_ms);
        let (resp, ms) = admitted(
            server,
            &Command::Render {
                session: name.to_owned(),
                width: 800.0,
                height: 600.0,
                theme: Theme::Light,
                labels: false,
                zoom: None,
                pan_x: None,
                pan_y: None,
            },
            &mut sheds,
        );
        assert!(resp.starts_with("{\"ok\""), "render failed: {resp}");
        renders.push(ms);
        if scale.think_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(scale.think_ms));
        }
    }
    (renders, slices, sheds)
}

struct LoadResult {
    clients: usize,
    p50_ms: f64,
    p99_ms: f64,
    /// Median admitted `set_time_slice` latency: with the median
    /// render, the per-round service demand used to size offered load.
    slice_p50_ms: f64,
    sheds: u64,
    attempts: u64,
    /// The worst ten latencies, for `FIG_RESILIENCE_DEBUG` output.
    tail: Vec<f64>,
}

/// Runs `clients` concurrent closed-loop clients against a fresh
/// server gated at `scale.max_inflight` in-flight commands.
/// `rounds_per_client` overrides the scale's rounds so the unloaded
/// and overloaded phases collect the same total sample count — a p99
/// over fewer samples would dodge the rare scheduler stalls the
/// larger phase is guaranteed to catch, skewing the ratio.
fn run(clients: usize, rounds_per_client: usize, csv: &str, scale: &Scale) -> LoadResult {
    let scale = &Scale { rounds: rounds_per_client, ..*scale };
    let limits = ServerLimits {
        max_inflight_commands: scale.max_inflight,
        // A tight hint keeps retry spins productive in a benchmark;
        // production defaults are coarser.
        overload_retry_after_ms: 1,
        ..ServerLimits::default()
    };
    let server = Arc::new(Server::new(limits));
    // Sessions are created sequentially before any client thread
    // starts; the barrier then releases all measured loops at once.
    for i in 0..clients {
        setup(&server, &format!("load-{i}"), csv);
    }
    let barrier = Arc::new(Barrier::new(clients));
    let mut handles = Vec::new();
    for i in 0..clients {
        let server = Arc::clone(&server);
        let barrier = Arc::clone(&barrier);
        let s = *scale;
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            drive(&server, &format!("load-{i}"), &s)
        }));
    }
    let mut latencies = Vec::new();
    let mut slices = Vec::new();
    let mut sheds = 0u64;
    for h in handles {
        let (l, sl, s) = h.join().expect("client thread");
        sheds += s;
        latencies.extend(l);
        slices.extend(sl);
    }
    let attempts = (latencies.len() + slices.len()) as u64 + sheds;
    latencies.sort_by(|a, b| a.total_cmp(b));
    slices.sort_by(|a, b| a.total_cmp(b));
    LoadResult {
        clients,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        slice_p50_ms: percentile(&slices, 50.0),
        sheds,
        attempts,
        tail: latencies.iter().rev().take(10).copied().collect(),
    }
}

/// Deterministic overload, independent of core count: one long relax
/// occupies the whole gate of a `max_inflight = 1` server while pings
/// keep arriving — 2× offered load over the gate, by construction.
/// Returns (pings shed while the gate was full, pings answered).
fn run_shed_probe(csv: &str) -> (u64, u64) {
    let limits = ServerLimits {
        max_inflight_commands: 1,
        overload_retry_after_ms: 1,
        ..ServerLimits::default()
    };
    let server = Arc::new(Server::new(limits));
    let load = Command::LoadTrace {
        session: "probe".to_owned(),
        mode: RecoveryMode::Strict,
        text: csv.to_owned(),
        trace: None,
    };
    let resp = server.handle_line(&load.encode()).expect("non-blank command");
    assert!(resp.starts_with("{\"ok\""), "probe load failed: {resp}");
    let blocker = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let relax = Command::Relax { session: "probe".to_owned(), steps: 20_000 };
            server.handle_line(&relax.encode()).expect("non-blank command")
        })
    };
    let mut sheds = 0u64;
    let mut answered = 0u64;
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    while !blocker.is_finished() && Instant::now() < deadline {
        let resp = server.handle_line("{\"cmd\":\"ping\"}").expect("non-blank command");
        match Response::decode(&resp).expect("decodable response") {
            Response::Error { kind: ErrorKind::Overloaded { .. }, .. } => sheds += 1,
            Response::Error { .. } => panic!("unexpected error: {resp}"),
            _ => answered += 1,
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let relax_resp = blocker.join().expect("blocker thread");
    assert!(relax_resp.starts_with("{\"ok\""), "blocker relax failed: {relax_resp}");
    (sheds, answered)
}

/// Times the checkpoint→restore round-trip: the recovery path a
/// drained or crashed server replays on the way back up.
fn run_restore(csv: &str, scale: &Scale) -> (f64, f64) {
    let server = Server::new(ServerLimits::default());
    let send = |cmd: &Command| -> Response {
        let resp = server.handle_line(&cmd.encode()).expect("non-blank command");
        Response::decode(&resp).expect("decodable response")
    };
    send(&Command::LoadTrace {
        session: "r".to_owned(),
        mode: RecoveryMode::Strict,
        text: csv.to_owned(),
        trace: None,
    });
    send(&Command::Relax { session: "r".to_owned(), steps: 50 });
    let state = match send(&Command::Checkpoint { session: "r".to_owned() }) {
        Response::Checkpointed { state, .. } => state,
        other => panic!("checkpoint failed: {other:?}"),
    };
    let mut times = Vec::with_capacity(scale.restore_reps);
    for _ in 0..scale.restore_reps {
        let t0 = Instant::now();
        let resp = send(&Command::Restore { session: "r".to_owned(), state: Some(state.clone()) });
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(matches!(resp, Response::Restored { .. }), "restore failed: {resp:?}");
    }
    times.sort_by(|a, b| a.total_cmp(b));
    (percentile(&times, 50.0), percentile(&times, 99.0))
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let scale = Scale { max_inflight: gate_width(), ..if small { SMALL } else { FULL } };
    let csv = grid_trace_csv(scale.clusters, scale.hosts, scale.steps);
    println!(
        "Resilience: {} hosts, {} rounds/client, gate {} in-flight, think {} ms ({} mode)",
        scale.clusters * scale.hosts,
        scale.rounds,
        scale.max_inflight,
        scale.think_ms,
        if small { "smoke" } else { "full" }
    );

    let unloaded = run(1, scale.rounds, &csv, &scale);
    println!(
        "  unloaded   (1 client):   render p50 {:.3} ms  p99 {:.3} ms  sheds {}",
        unloaded.p50_ms, unloaded.p99_ms, unloaded.sheds
    );
    if std::env::var_os("FIG_RESILIENCE_DEBUG").is_some() {
        println!("    debug tail: {:?}", &unloaded.tail);
    }
    assert_eq!(unloaded.sheds, 0, "a lone client must never be shed");

    // Size the fleet for 2× offered load: each closed-loop client
    // demands service/(service+think) of one gate slot, measured from
    // the unloaded medians.
    let service_ms = (unloaded.slice_p50_ms + unloaded.p50_ms).max(0.01);
    let per_client = service_ms / (service_ms + scale.think_ms as f64);
    let target = 2.0 * scale.max_inflight as f64;
    let overload_clients = ((target / per_client).ceil() as usize).clamp(2, 24);
    let offered = overload_clients as f64 * per_client / scale.max_inflight as f64;

    // Same total sample count as the unloaded phase: a p99 over fewer
    // samples would dodge the rare host-level stalls the larger phase
    // is certain to catch, skewing the ratio.
    let overloaded = run(
        overload_clients,
        (scale.rounds / overload_clients).max(8),
        &csv,
        &scale,
    );
    if std::env::var_os("FIG_RESILIENCE_DEBUG").is_some() {
        println!("    debug tail: {:?}", &overloaded.tail);
    }
    let shed_rate = overloaded.sheds as f64 / overloaded.attempts.max(1) as f64;
    println!(
        "  overloaded ({} clients, {:.1}x offered): render p50 {:.3} ms  p99 {:.3} ms  sheds {} ({:.1}% of attempts)",
        overloaded.clients,
        offered,
        overloaded.p50_ms,
        overloaded.p99_ms,
        overloaded.sheds,
        shed_rate * 100.0
    );
    // The gate itself, demonstrated deterministically: a relax that
    // fills a 1-wide gate while pings keep arriving. (The concurrent
    // run above may or may not shed on a single-core host — threads
    // with microsecond commands barely overlap there.)
    let (probe_sheds, probe_answered) = run_shed_probe(&csv);
    println!(
        "  shed probe (gate full): {probe_sheds} pings shed with overloaded, {probe_answered} answered around it"
    );
    assert!(probe_sheds > 0, "a full gate must shed concurrent offered load");

    let (restore_p50, restore_p99) = run_restore(&csv, &scale);
    println!("  restore: p50 {restore_p50:.3} ms  p99 {restore_p99:.3} ms");

    if small {
        println!("  smoke mode: shed/no-shed checks passed, timings not asserted");
        return;
    }

    let ratio = overloaded.p99_ms / unloaded.p99_ms.max(1e-9);
    println!("  admitted p99 under 2x load: {ratio:.2}x unloaded");
    assert!(
        ratio <= 2.0,
        "admission control must hold admitted p99 within 2x unloaded (got {ratio:.2}x)"
    );

    let mut json = String::from("{\n  \"benchmark\": \"resilience\",\n");
    json.push_str(&format!(
        "  \"trace\": {{ \"hosts\": {}, \"samples_per_phase\": {}, \"think_ms\": {} }},\n",
        scale.clusters * scale.hosts,
        scale.rounds,
        scale.think_ms
    ));
    json.push_str(&format!(
        "  \"gate\": {{ \"max_inflight\": {}, \"offered_multiplier\": {offered:.2} }},\n",
        scale.max_inflight
    ));
    json.push_str(&format!(
        "  \"unloaded\": {{ \"render_p50_ms\": {:.3}, \"render_p99_ms\": {:.3} }},\n",
        unloaded.p50_ms, unloaded.p99_ms
    ));
    json.push_str(&format!(
        "  \"overloaded\": {{ \"clients\": {}, \"admitted_p50_ms\": {:.3}, \"admitted_p99_ms\": {:.3}, \"shed_rate\": {:.4}, \"p99_vs_unloaded\": {:.2} }},\n",
        overloaded.clients, overloaded.p50_ms, overloaded.p99_ms, shed_rate, ratio
    ));
    json.push_str(&format!(
        "  \"shed_probe\": {{ \"sheds\": {probe_sheds}, \"answered\": {probe_answered} }},\n"
    ));
    json.push_str(&format!(
        "  \"restore\": {{ \"p50_ms\": {restore_p50:.3}, \"p99_ms\": {restore_p99:.3} }}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_resilience.json", &json).expect("write BENCH_resilience.json");
    println!("  [json] BENCH_resilience.json");
}
