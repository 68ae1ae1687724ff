//! Serving-layer benchmark — protocol throughput and render latency
//! under concurrent sessions.
//!
//! The serving layer's promise is that N analysts sharing one
//! `viva-server` each keep an interactive loop: per-session locks mean
//! independent sessions never contend, the shared-trace store means a
//! thousand sessions over one trace cost one parse and one index, and
//! the lock-free cached-render path keeps repeat renders flat as the
//! session count grows. This harness drives the wire protocol end to
//! end — encoded command line in, encoded response line out, through
//! [`viva_server::Server::handle_line`] — with 1 to 1024 concurrent
//! sessions over one stored trace (`load_trace` once, `attach`
//! everywhere else).
//!
//! Per run it reports:
//!
//! * **commands/sec** — total protocol commands served across all
//!   clients divided by wall time;
//! * **render p50/p99** — per-`render` latency percentiles (fresh
//!   renders; every round changes the slice so the frame cache cannot
//!   answer);
//! * **cached render p50/p99** — repeat-render latency (cache hits).
//!
//! Small session counts (≤ 16) run **closed-loop with think time**,
//! one thread per analyst, the way interactive serving systems are
//! conventionally loaded. Large counts (≥ 64) are driven by a fixed
//! pool of multiplexed driver threads with no think time — more
//! sessions than threads, like the event-driven transport itself —
//! because a thousand sleeping OS threads would benchmark the
//! scheduler, not the server.
//!
//! Full mode asserts four properties and writes `BENCH_server.json`:
//! throughput grows from 1 to 4 sessions; cached-render p99 at 16
//! sessions stays within 2× of the single-session value (the registry
//! -lock regression guard); render p99 at 1024 sessions stays within
//! 2× of the 16-session value; and 1024-session throughput clears 3×
//! the pre-redesign 16-session baseline. `--small` is the CI smoke
//! mode that keeps the correctness checks but skips timing claims and
//! leaves the committed JSON alone.

use std::sync::Arc;
use std::time::{Duration, Instant};

use viva::Theme;
use viva_bench::{grid_trace_csv, percentile};
use viva_server::protocol::Command;
use viva_server::{Server, ServerLimits};
use viva_trace::RecoveryMode;

#[derive(Clone, Copy)]
struct Scale {
    clusters: usize,
    hosts: usize,
    steps: usize,
    rounds: usize,
    /// Closed-loop think time between rounds, milliseconds.
    think_ms: u64,
}

const FULL: Scale = Scale { clusters: 4, hosts: 12, steps: 80, rounds: 40, think_ms: 5 };
const SMALL: Scale = Scale { clusters: 2, hosts: 3, steps: 10, rounds: 4, think_ms: 0 };

/// Store name every session attaches to.
const TRACE: &str = "bench";

/// The 16-session commands/sec of the thread-per-connection,
/// trace-per-session server this redesign replaced (BENCH_server.json
/// at the seed). The 1024-session run must clear 3× this.
const SEED_CMDS_PER_SEC: f64 = 788.0;

/// Session counts driven by one multiplexed thread pool instead of a
/// thread each. Below this, a count is still multiplexed if it would
/// oversubscribe the machine (more than 4 client threads per core):
/// a thread-per-session run with more runnable threads than cores
/// measures the OS scheduler's preemption tail, not the server.
const MULTIPLEX_FROM: usize = 64;

/// Rounds per session in the multiplexed runs (the per-session script
/// is shorter so the total command count stays bounded).
const MULTIPLEX_ROUNDS: usize = 8;

fn send(server: &Server, commands: &mut u64, cmd: &Command) -> String {
    let line = cmd.encode();
    let resp = server.handle_line(&line).expect("non-blank command line");
    assert!(resp.starts_with("{\"ok\""), "command failed: {line} -> {resp}");
    *commands += 1;
    resp
}

/// Attaches `name` to the stored trace and settles its layout.
fn open_session(server: &Server, commands: &mut u64, name: &str) {
    send(
        server,
        commands,
        &Command::Attach { session: name.to_owned(), trace: TRACE.to_owned() },
    );
    send(server, commands, &Command::Relax { session: name.to_owned(), steps: 50 });
}

/// One analyst round on one session: slide the slice (bumps the
/// revision), render fresh, render again from the cache. Latencies in
/// milliseconds are pushed into `fresh`/`cached`.
fn one_round(
    server: &Server,
    commands: &mut u64,
    name: &str,
    scale: &Scale,
    round: usize,
    fresh: &mut Vec<f64>,
    cached: &mut Vec<f64>,
) {
    let start = (round % scale.steps) as f64;
    send(
        server,
        commands,
        &Command::SetTimeSlice {
            session: name.to_owned(),
            start,
            end: start + (scale.steps / 4).max(1) as f64,
        },
    );
    let render = Command::Render {
        session: name.to_owned(),
        width: 800.0,
        height: 600.0,
        theme: Theme::Light,
        labels: false,
        zoom: None,
        pan_x: None,
        pan_y: None,
    };
    let t0 = Instant::now();
    let first = send(server, commands, &render);
    fresh.push(t0.elapsed().as_secs_f64() * 1e3);
    assert!(first.contains("\"cached\":false"), "expected a fresh render");
    let t0 = Instant::now();
    let repeat = send(server, commands, &render);
    cached.push(t0.elapsed().as_secs_f64() * 1e3);
    assert!(repeat.contains("\"cached\":true"), "expected a cache hit");
}

/// One closed-loop client owning one session (small session counts).
fn drive_session(server: &Server, name: &str, scale: &Scale) -> (u64, Vec<f64>, Vec<f64>) {
    let mut commands = 0u64;
    let mut fresh = Vec::with_capacity(scale.rounds);
    let mut cached = Vec::with_capacity(scale.rounds);
    open_session(server, &mut commands, name);
    for round in 0..scale.rounds {
        one_round(server, &mut commands, name, scale, round, &mut fresh, &mut cached);
        if scale.think_ms > 0 {
            std::thread::sleep(Duration::from_millis(scale.think_ms));
        }
    }
    (commands, fresh, cached)
}

/// One multiplexed driver interleaving rounds across many sessions —
/// every session in the chunk stays live the whole run, so the
/// registry, store, and frame caches all hold the full population.
fn drive_many(
    server: &Server,
    names: &[String],
    scale: &Scale,
    rounds: usize,
) -> (u64, Vec<f64>, Vec<f64>) {
    let mut commands = 0u64;
    let mut fresh = Vec::with_capacity(rounds * names.len());
    let mut cached = Vec::with_capacity(rounds * names.len());
    for name in names {
        open_session(server, &mut commands, name);
    }
    for round in 0..rounds {
        for name in names {
            one_round(server, &mut commands, name, scale, round, &mut fresh, &mut cached);
        }
    }
    (commands, fresh, cached)
}

struct RunResult {
    sessions: usize,
    commands_per_sec: f64,
    render_p50_ms: f64,
    render_p99_ms: f64,
    cached_p50_ms: f64,
    cached_p99_ms: f64,
}

/// Runs `n` concurrent sessions over one stored trace against one
/// fresh server.
fn run(n: usize, csv: &str, scale: &Scale) -> RunResult {
    let server = Arc::new(Server::new(ServerLimits {
        max_sessions: n + 1,
        ..ServerLimits::default()
    }));
    // Parse + index once; every session below shares the stored trace.
    let mut setup = 0u64;
    send(
        &server,
        &mut setup,
        &Command::LoadTrace {
            session: "loader".to_owned(),
            mode: RecoveryMode::Strict,
            text: csv.to_owned(),
            trace: Some(TRACE.to_owned()),
        },
    );
    send(&server, &mut setup, &Command::CloseSession { session: "loader".to_owned() });

    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let t0 = Instant::now();
    let mut handles = Vec::new();
    if n >= MULTIPLEX_FROM || n > 4 * cores {
        // Half the cores drive, the other half serve. On a small box
        // that degenerates to one driver — the right load generator
        // there, since more drivers than cores measures the OS
        // scheduler's preemption tail, not the server.
        let drivers = (cores / 2).clamp(1, 16);
        let names: Vec<String> = (0..n).map(|i| format!("analyst-{i}")).collect();
        let chunk = n.div_ceil(drivers);
        for part in names.chunks(chunk) {
            let server = Arc::clone(&server);
            let part = part.to_vec();
            let s = *scale;
            handles.push(std::thread::spawn(move || {
                drive_many(&server, &part, &s, MULTIPLEX_ROUNDS)
            }));
        }
    } else {
        for i in 0..n {
            let server = Arc::clone(&server);
            let s = *scale;
            handles.push(std::thread::spawn(move || {
                drive_session(&server, &format!("analyst-{i}"), &s)
            }));
        }
    }
    let mut commands = 0u64;
    let mut fresh = Vec::new();
    let mut cached = Vec::new();
    for h in handles {
        let (c, f, k) = h.join().expect("client thread");
        commands += c;
        fresh.extend(f);
        cached.extend(k);
    }
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(server.registry().len(), n, "every client keeps its session");
    let listing = server.store().list();
    assert_eq!(listing.len(), 1, "one stored trace serves every session");
    assert_eq!(
        listing[0].sessions as usize, n,
        "one Arc strong count per attached session"
    );
    fresh.sort_by(|a, b| a.total_cmp(b));
    cached.sort_by(|a, b| a.total_cmp(b));
    RunResult {
        sessions: n,
        commands_per_sec: commands as f64 / wall.max(1e-9),
        render_p50_ms: percentile(&fresh, 50.0),
        render_p99_ms: percentile(&fresh, 99.0),
        cached_p50_ms: percentile(&cached, 50.0),
        cached_p99_ms: percentile(&cached, 99.0),
    }
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let scale = if small { SMALL } else { FULL };
    let csv = grid_trace_csv(scale.clusters, scale.hosts, scale.steps);
    println!(
        "Server: {} hosts, {} rounds/client ({} mode)",
        scale.clusters * scale.hosts,
        scale.rounds,
        if small { "smoke" } else { "full" }
    );

    let counts: &[usize] = if small { &[1, 2] } else { &[1, 4, 16, 64, 256, 1024] };
    let mut results = Vec::new();
    for &n in counts {
        let r = run(n, &csv, &scale);
        println!(
            "  {:>4} sessions: {:>8.0} cmd/s, render p50 {:.3} ms p99 {:.3} ms, cached p50 {:.4} ms p99 {:.4} ms",
            r.sessions,
            r.commands_per_sec,
            r.render_p50_ms,
            r.render_p99_ms,
            r.cached_p50_ms,
            r.cached_p99_ms
        );
        results.push(r);
    }

    if small {
        println!("  smoke mode: protocol + cache + sharing checks passed, timings not asserted");
        return;
    }

    let by = |n: usize| results.iter().find(|r| r.sessions == n).expect("run present");

    let scaling = by(4).commands_per_sec / by(1).commands_per_sec.max(1e-9);
    println!("  throughput scaling 1 -> 4 sessions: {scaling:.2}x");
    assert!(scaling > 1.0, "4 concurrent sessions must out-serve 1 (got {scaling:.2}x)");

    // The registry-lock regression guard: cached renders bypass every
    // shared lock, so their tail must not grow with the session count.
    let cached_ratio = by(16).cached_p99_ms / by(1).cached_p99_ms.max(1e-9);
    println!("  cached-render p99 16 vs 1 sessions: {cached_ratio:.2}x");
    assert!(
        cached_ratio <= 2.0,
        "cached-render p99 regressed with session count: {:.4} ms at 16 vs {:.4} ms at 1 ({cached_ratio:.2}x > 2x)",
        by(16).cached_p99_ms,
        by(1).cached_p99_ms
    );

    // Scalability gates for the event-driven redesign.
    let tail_ratio = by(1024).render_p99_ms / by(16).render_p99_ms.max(1e-9);
    println!("  render p99 1024 vs 16 sessions: {tail_ratio:.2}x");
    assert!(
        tail_ratio <= 2.0,
        "render p99 at 1024 sessions must stay within 2x of 16 ({tail_ratio:.2}x)"
    );
    assert!(
        by(1024).commands_per_sec >= 3.0 * SEED_CMDS_PER_SEC,
        "1024-session throughput {:.0} cmd/s must clear 3x the {SEED_CMDS_PER_SEC} cmd/s seed",
        by(1024).commands_per_sec
    );

    let mut json = String::from("{\n  \"benchmark\": \"server\",\n  \"protocol\": \"ndjson-v1\",\n");
    json.push_str(&format!(
        "  \"trace\": {{ \"hosts\": {}, \"rounds_per_client\": {}, \"think_ms\": {}, \"multiplexed_from_sessions\": {}, \"multiplexed_rounds\": {} }},\n",
        scale.clusters * scale.hosts,
        scale.rounds,
        scale.think_ms,
        MULTIPLEX_FROM,
        MULTIPLEX_ROUNDS
    ));
    json.push_str(&format!("  \"throughput_scaling_1_to_4\": {scaling:.2},\n  \"runs\": [\n"));
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"sessions\": {}, \"commands_per_sec\": {:.0}, \"render_p50_ms\": {:.3}, \"render_p99_ms\": {:.3}, \"cached_render_p50_ms\": {:.4}, \"cached_render_p99_ms\": {:.4} }}{}\n",
            r.sessions,
            r.commands_per_sec,
            r.render_p50_ms,
            r.render_p99_ms,
            r.cached_p50_ms,
            r.cached_p99_ms,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_server.json", &json).expect("write BENCH_server.json");
    println!("  [json] BENCH_server.json");
}
