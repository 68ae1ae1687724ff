//! Durable-streaming benchmark — append latency under subscriber
//! fan-out, crash-recovery speed, and the delta protocol's wire
//! savings.
//!
//! The streaming promise (DESIGN.md §16) is threefold:
//!
//! * **appends are interactive even when durable and watched** — every
//!   `append` journals + fsyncs before acking, and publishing view
//!   deltas to subscribers must not wreck the append path: the gate is
//!   append p99 with 16 subscribers within 2× of the 0-subscriber run;
//! * **recovery is replay, and replay is fast** — a killed server
//!   rebuilds every live session from its journal; the harness times
//!   the recovery and asserts the recovered render is byte-identical
//!   to the uninterrupted run's;
//! * **deltas beat frames on the wire** — a subscriber receives only
//!   the changed nodes per append; the harness compares the bytes a
//!   subscriber actually received against re-sending the rendered
//!   frame per update.
//!
//! Full mode asserts the gates and writes `BENCH_streaming.json`;
//! `--small` is the CI smoke that keeps the correctness checks and
//! skips timing claims.

use std::path::Path;
use std::time::Instant;

use viva::Theme;
use viva_bench::percentile;
use viva_server::{Command, Push, Response, Server, ServerLimits};

#[derive(Clone, Copy)]
struct Scale {
    clusters: usize,
    hosts_per_cluster: usize,
    /// Batched appends per run (each carries `samples_per_append`
    /// var records).
    appends: usize,
    samples_per_append: usize,
}

const FULL: Scale =
    Scale { clusters: 4, hosts_per_cluster: 16, appends: 1500, samples_per_append: 50 };
const SMALL: Scale =
    Scale { clusters: 2, hosts_per_cluster: 3, appends: 40, samples_per_append: 10 };

const SESSION: &str = "stream";

/// The structural opener (append seq 1): topology + one seed sample
/// per host, with hand-assigned container ids so later events can
/// address hosts directly.
fn opener(s: &Scale) -> (String, Vec<u32>) {
    let mut text = format!("span,0.0,{}\n", s.appends + 1);
    let mut hosts = Vec::new();
    let mut id = 1u32;
    for c in 0..s.clusters {
        let cluster = id;
        id += 1;
        text.push_str(&format!("container,{cluster},0,cluster,cl{c}\n"));
        for h in 0..s.hosts_per_cluster {
            text.push_str(&format!("container,{id},{cluster},host,cl{c}-h{h}\n"));
            hosts.push(id);
            id += 1;
        }
    }
    text.push_str("metric,0,MFlop/s,power\nmetric,1,MFlop/s,power_used\n");
    for &h in &hosts {
        text.push_str(&format!("var,0.0,{h},0,100.0\n"));
    }
    (text, hosts)
}

/// Append seq `i + 1` (i >= 1): a batch of samples at time `i`,
/// cycling over hosts. Exactly representable values keep every run
/// byte-deterministic.
fn event(s: &Scale, hosts: &[u32], i: usize) -> String {
    let mut text = String::new();
    for k in 0..s.samples_per_append {
        let host = hosts[(i * s.samples_per_append + k) % hosts.len()];
        let v = ((i * 7 + k * 3) % 100) as f64;
        text.push_str(&format!("var,{i},{host},1,{v}\n"));
    }
    text.pop();
    text
}

fn send(server: &Server, cmd: &Command) -> Response {
    let resp = server.handle_line(&cmd.encode()).expect("non-blank command");
    Response::decode(&resp).expect("decodable response")
}

fn render(server: &Server) -> String {
    match send(
        server,
        &Command::Render {
            session: SESSION.to_owned(),
            width: 800.0,
            height: 600.0,
            theme: Theme::Light,
            labels: false,
            zoom: None,
            pan_x: None,
            pan_y: None,
        },
    ) {
        Response::Frame { svg, .. } => svg,
        other => panic!("render failed: {other:?}"),
    }
}

struct RunResult {
    append_p50_ms: f64,
    append_p99_ms: f64,
    events_per_sec: f64,
    /// Bytes of delta pushes received per subscriber (0 with no
    /// subscribers).
    delta_bytes_per_sub: u64,
    svg: String,
}

/// One full streamed run: durable appends (fsync every ack) with
/// `subscribers` live subscriber connections, drained after every
/// append like attentive dashboards. Returns append latency stats and
/// the final render.
fn run(dir: &Path, s: &Scale, subscribers: usize) -> RunResult {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create journal dir");
    let limits = ServerLimits {
        journal_dir: Some(dir.to_path_buf()),
        journal_sync_every: 1,
        subscriber_queue: 64,
        ..ServerLimits::default()
    };
    let server = Server::new(limits);
    let (first, hosts) = opener(s);
    match send(&server, &Command::Append { session: SESSION.to_owned(), seq: 1, text: first }) {
        Response::Appended { .. } => {}
        other => panic!("opening append failed: {other:?}"),
    }
    let conns: Vec<u64> = (0..subscribers).map(|_| server.open_conn()).collect();
    for &conn in &conns {
        let sub = Command::Subscribe { session: SESSION.to_owned(), from_seq: None };
        let resp = server.handle_line_on(Some(conn), &format!("{}\n", sub.encode()));
        assert!(
            matches!(resp.as_deref().map(Response::decode), Some(Ok(Response::Subscribed { .. }))),
            "subscribe failed: {resp:?}"
        );
        server.take_pushes(conn); // swallow the snapshot
    }
    let mut latencies = Vec::with_capacity(s.appends);
    let mut delta_bytes = 0u64;
    let t0 = Instant::now();
    for i in 1..=s.appends {
        let cmd = Command::Append {
            session: SESSION.to_owned(),
            seq: (i + 1) as u64,
            text: event(s, &hosts, i),
        };
        let line = cmd.encode();
        let t = Instant::now();
        let resp = server.handle_line(&line).expect("append response");
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(resp.starts_with("{\"ok\":\"appended\""), "append refused: {resp}");
        for &conn in &conns {
            for push in server.take_pushes(conn) {
                assert!(Push::is_push(&push), "unexpected non-push line: {push}");
                if conn == conns[0] {
                    delta_bytes += push.len() as u64 + 1;
                }
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let svg = render(&server);
    latencies.sort_by(|a, b| a.total_cmp(b));
    RunResult {
        append_p50_ms: percentile(&latencies, 50.0),
        append_p99_ms: percentile(&latencies, 99.0),
        events_per_sec: (s.appends * s.samples_per_append) as f64 / wall.max(1e-9),
        delta_bytes_per_sub: delta_bytes,
        svg,
    }
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let scale = if small { SMALL } else { FULL };
    let base = std::env::temp_dir().join(format!("viva_fig_streaming_{}", std::process::id()));
    println!(
        "Streaming: {} hosts, {} appends x {} samples, fsync every append ({} mode)",
        scale.clusters * scale.hosts_per_cluster,
        scale.appends,
        scale.samples_per_append,
        if small { "smoke" } else { "full" }
    );

    // Appends with nobody watching, then with 16 attentive subscribers.
    let quiet = run(&base.join("quiet"), &scale, 0);
    println!(
        "  0 subscribers: append p50 {:.3} ms p99 {:.3} ms, {:.0} events/s",
        quiet.append_p50_ms, quiet.append_p99_ms, quiet.events_per_sec
    );
    let watched = run(&base.join("watched"), &scale, 16);
    println!(
        "  16 subscribers: append p50 {:.3} ms p99 {:.3} ms, {:.0} events/s, {} delta bytes/sub",
        watched.append_p50_ms,
        watched.append_p99_ms,
        watched.events_per_sec,
        watched.delta_bytes_per_sub
    );
    assert_eq!(quiet.svg, watched.svg, "subscribers must not change session state");

    // Crash recovery: a fresh server over the watched run's journal
    // dir rebuilds the session; the render must match byte for byte.
    let t0 = Instant::now();
    let limits = ServerLimits {
        journal_dir: Some(base.join("watched")),
        journal_sync_every: 1,
        ..ServerLimits::default()
    };
    let revived = Server::new(limits);
    let recovered = revived.recover_journals();
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(recovered, vec![SESSION.to_owned()], "recovery must find the session");
    assert_eq!(render(&revived), watched.svg, "recovered render must be byte-identical");
    let total_events = scale.appends * scale.samples_per_append;
    println!(
        "  recovery: {} events replayed in {:.1} ms ({:.0} events/s), render byte-identical",
        total_events,
        recovery_ms,
        total_events as f64 / (recovery_ms / 1e3).max(1e-9)
    );

    // The delta protocol's wire savings vs re-sending the frame.
    let frame_bytes = watched.svg.len() as u64 * scale.appends as u64;
    let savings = frame_bytes as f64 / watched.delta_bytes_per_sub.max(1) as f64;
    println!(
        "  wire: {} delta bytes/sub vs {} frame bytes ({savings:.1}x smaller)",
        watched.delta_bytes_per_sub, frame_bytes
    );

    let _ = std::fs::remove_dir_all(&base);

    if small {
        println!("  smoke mode: recovery + fan-out checks passed, timings not asserted");
        return;
    }

    // The fan-out gate: publishing to 16 subscribers must not wreck
    // the durable append path.
    let ratio = watched.append_p99_ms / quiet.append_p99_ms.max(1e-9);
    println!("  append p99 16 vs 0 subscribers: {ratio:.2}x");
    assert!(
        ratio <= 2.0,
        "append p99 with 16 subscribers must stay within 2x of unwatched: \
         {:.3} ms vs {:.3} ms ({ratio:.2}x)",
        watched.append_p99_ms,
        quiet.append_p99_ms
    );
    assert!(savings > 1.0, "deltas must beat frames on the wire ({savings:.2}x)");

    let json = format!(
        "{{\n  \"benchmark\": \"streaming\",\n  \"protocol\": \"ndjson-v1\",\n  \
         \"workload\": {{ \"hosts\": {}, \"appends\": {}, \"samples_per_append\": {}, \"fsync_every_append\": true }},\n  \
         \"append_p50_ms_0_subs\": {:.3},\n  \"append_p99_ms_0_subs\": {:.3},\n  \
         \"append_p50_ms_16_subs\": {:.3},\n  \"append_p99_ms_16_subs\": {:.3},\n  \
         \"append_p99_fanout_ratio\": {:.2},\n  \
         \"append_events_per_sec_0_subs\": {:.0},\n  \"append_events_per_sec_16_subs\": {:.0},\n  \
         \"recovery_ms\": {:.1},\n  \"recovery_events_per_sec\": {:.0},\n  \
         \"delta_bytes_per_subscriber\": {},\n  \"frame_bytes_equivalent\": {},\n  \
         \"delta_wire_savings\": {:.1}\n}}\n",
        scale.clusters * scale.hosts_per_cluster,
        scale.appends,
        scale.samples_per_append,
        quiet.append_p50_ms,
        quiet.append_p99_ms,
        watched.append_p50_ms,
        watched.append_p99_ms,
        ratio,
        quiet.events_per_sec,
        watched.events_per_sec,
        recovery_ms,
        total_events as f64 / (recovery_ms / 1e3).max(1e-9),
        watched.delta_bytes_per_sub,
        frame_bytes,
        savings
    );
    std::fs::write("BENCH_streaming.json", &json).expect("write BENCH_streaming.json");
    println!("  [json] BENCH_streaming.json");
}
