//! The deterministic scripted client: replays a command script
//! byte-for-byte and prints one response line per command line.
//!
//! ```sh
//! # In-process replay (no server needed; the golden-transcript mode):
//! viva-server-client session.script > transcript.ndjson
//!
//! # Against a running TCP server:
//! viva-server-client --tcp 127.0.0.1:7878 session.script
//!
//! # Either mode, with a per-command latency summary on stderr
//! # (p50/p99 from the observability histograms; stdout unchanged):
//! viva-server-client --timing session.script > transcript.ndjson
//! ```
//!
//! Blank lines in the script are skipped (they produce no response in
//! either mode), so a script replayed in-process and a script piped to
//! `viva-server --stdio` yield identical transcripts.
//!
//! With `--retry N`, a shed command (`"overloaded"` error) or a refused
//! connection is retried up to N times with exponential backoff plus
//! jitter; the server's `retry_after_ms` hint is honoured as the floor
//! for the next wait. The default (`--retry 0`) never retries, so the
//! golden-transcript replays are unchanged.
//!
//! The shared-trace store has first-class flags, each synthesizing the
//! corresponding protocol command ahead of the script (in the order
//! given on the command line):
//!
//! ```sh
//! # Open a session over a trace already in the server's store:
//! viva-server-client --tcp 127.0.0.1:7878 --attach mine=prod tour.script
//!
//! # Inspect / trim the store (no script needed):
//! viva-server-client --tcp 127.0.0.1:7878 --list-traces
//! viva-server-client --tcp 127.0.0.1:7878 --drop-trace prod
//!
//! # Render a level-of-detail frame (zoom 4x, panned) with no script:
//! viva-server-client --tcp 127.0.0.1:7878 --render mine=1280x720@4,160,-40
//! ```
//!
//! When any of these flags is present and no script is named, stdin is
//! *not* read — the synthesized commands are the whole script.
//!
//! `--follow SESSION` turns the client into a live subscriber: it
//! connects over TCP, sends `subscribe`, and prints every pushed view
//! delta as a line on stdout. When the server sheds it as a laggard it
//! re-subscribes from the pushed `resume_seq`; when the connection
//! drops it reconnects with the `--retry` backoff and resumes from the
//! last delta it printed.
//!
//! ```sh
//! viva-server-client --tcp 127.0.0.1:7878 --retry 5 --follow mysession
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

use std::collections::BTreeMap;

use viva::Theme;
use viva_obs::Recorder;
use viva_server::protocol::SpanNode;
use viva_server::{Command, ErrorKind, Push, Response, Server, ServerLimits};

const USAGE: &str = "usage: viva-server-client [--tcp ADDR] [--timing] [--retry N] \
     [--attach SESSION=TRACE] [--list-traces] [--drop-trace TRACE] \
     [--render SESSION=WxH[@ZOOM[,PANX,PANY]]] \
     [--follow SESSION] [--profile SESSION] [SCRIPT (default stdin)]";

/// Parses `--render SESSION=WxH[@ZOOM[,PANX,PANY]]` into a `render`
/// command (light theme, no labels). The optional `@` suffix attaches
/// the level-of-detail camera — zoom alone, or zoom plus both pans;
/// without it the render is the classic camera-less frame.
fn parse_render(spec: &str) -> Option<Command> {
    let (session, rest) = spec.split_once('=')?;
    if session.is_empty() {
        return None;
    }
    let (size, camera) = match rest.split_once('@') {
        Some((s, c)) => (s, Some(c)),
        None => (rest, None),
    };
    let (w, h) = size.split_once('x')?;
    let width: f64 = w.parse().ok()?;
    let height: f64 = h.parse().ok()?;
    let (zoom, pan_x, pan_y) = match camera {
        None => (None, None, None),
        Some(c) => {
            let mut parts = c.split(',');
            let zoom: f64 = parts.next()?.parse().ok()?;
            let pans = match (parts.next(), parts.next(), parts.next()) {
                (None, None, None) => (None, None),
                (Some(x), Some(y), None) => {
                    (Some(x.parse::<f64>().ok()?), Some(y.parse::<f64>().ok()?))
                }
                _ => return None,
            };
            (Some(zoom), pans.0, pans.1)
        }
    };
    Some(Command::Render {
        session: session.to_owned(),
        width,
        height,
        theme: Theme::Light,
        labels: false,
        zoom,
        pan_x,
        pan_y,
    })
}

/// Exponential backoff with deterministic jitter. Each command (and the
/// initial connect) gets a fresh budget of `budget` retries; the wait
/// doubles from 10ms up to a 2s cap, a server-provided `retry_after_ms`
/// hint raises the floor, and an xorshift-derived jitter of up to half
/// the base spreads concurrent clients apart.
struct Retry {
    budget: u32,
    attempt: u32,
    rng: u64,
}

impl Retry {
    fn new(budget: u32) -> Self {
        // Seed the jitter stream per-process so a fleet of clients
        // started together does not retry in lockstep.
        let seed = u64::from(std::process::id()) | 0x9e37_79b9_7f4a_7c15;
        Retry { budget, attempt: 0, rng: seed }
    }

    /// The next wait, or `None` when the retry budget is spent.
    fn next_delay(&mut self, floor_ms: u64) -> Option<Duration> {
        if self.attempt >= self.budget {
            return None;
        }
        self.attempt += 1;
        let base = 10u64 << (self.attempt - 1).min(8);
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let jitter = self.rng % (base / 2 + 1);
        Some(Duration::from_millis(base.min(2_000).max(floor_ms) + jitter))
    }
}

/// If a response line is an overload shed, the `retry_after_ms` hint.
fn overload_hint(line: &str) -> Option<u64> {
    match Response::decode(line.trim()) {
        Ok(Response::Error { kind: ErrorKind::Overloaded { retry_after_ms }, .. }) => {
            Some(retry_after_ms)
        }
        _ => None,
    }
}

fn main() -> ExitCode {
    let mut tcp: Option<String> = None;
    let mut script_path: Option<String> = None;
    let mut timing = false;
    let mut retry = 0u32;
    let mut follow: Option<String> = None;
    let mut profile: Option<String> = None;
    // Protocol commands synthesized from flags, replayed ahead of the
    // script in command-line order.
    let mut prelude: Vec<Command> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tcp" => match it.next() {
                Some(addr) => tcp = Some(addr),
                None => {
                    eprintln!("viva-server-client: --tcp needs an address\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--timing" => timing = true,
            "--attach" => match it.next().as_deref().and_then(|v| v.split_once('=')) {
                Some((session, trace)) if !session.is_empty() && !trace.is_empty() => {
                    prelude.push(Command::Attach {
                        session: session.to_owned(),
                        trace: trace.to_owned(),
                    });
                }
                _ => {
                    eprintln!("viva-server-client: --attach needs SESSION=TRACE\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--list-traces" => prelude.push(Command::ListTraces),
            "--render" => match it.next().as_deref().and_then(parse_render) {
                Some(cmd) => prelude.push(cmd),
                None => {
                    eprintln!(
                        "viva-server-client: --render needs SESSION=WxH[@ZOOM[,PANX,PANY]]\n{USAGE}"
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--drop-trace" => match it.next() {
                Some(trace) => prelude.push(Command::DropTrace { trace }),
                None => {
                    eprintln!("viva-server-client: --drop-trace needs a trace name\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--follow" => match it.next() {
                Some(session) => follow = Some(session),
                None => {
                    eprintln!("viva-server-client: --follow needs a session name\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--profile" => match it.next() {
                Some(session) => profile = Some(session),
                None => {
                    eprintln!("viva-server-client: --profile needs a session name\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--retry" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => retry = n,
                None => {
                    eprintln!("viva-server-client: --retry needs an integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if script_path.is_none() && !other.starts_with('-') => {
                script_path = Some(other.to_owned());
            }
            other => {
                eprintln!("viva-server-client: unknown argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(session) = profile {
        // Profile mode asks a tracing server for its recent span trees
        // and prints where the session's commands spent their time.
        let Some(addr) = tcp else {
            eprintln!("viva-server-client: --profile requires --tcp\n{USAGE}");
            return ExitCode::FAILURE;
        };
        return match profile_tcp(&addr, &session, retry) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("viva-server-client: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(session) = follow {
        // Follow mode is a long-lived subscription, not a replay: it
        // needs a push-capable transport and takes no script.
        let Some(addr) = tcp else {
            eprintln!("viva-server-client: --follow requires --tcp\n{USAGE}");
            return ExitCode::FAILURE;
        };
        if script_path.is_some() || !prelude.is_empty() {
            eprintln!("viva-server-client: --follow cannot be combined with a script\n{USAGE}");
            return ExitCode::FAILURE;
        }
        return match follow_tcp(&addr, &session, retry) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("viva-server-client: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let body = match &script_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("viva-server-client: read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        // Flags alone are a complete script; only fall back to stdin
        // when there is nothing else to run.
        None if !prelude.is_empty() => String::new(),
        None => {
            let mut s = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut s) {
                eprintln!("viva-server-client: read stdin: {e}");
                return ExitCode::FAILURE;
            }
            s
        }
    };
    let mut script = String::new();
    for cmd in &prelude {
        script.push_str(&cmd.encode());
        script.push('\n');
    }
    script.push_str(&body);

    // With `--timing`, each command's round-trip is recorded into a
    // client-side observability histogram keyed by command name; the
    // summary goes to stderr so stdout stays the byte-exact transcript.
    let recorder = if timing { Recorder::enabled() } else { Recorder::disabled() };
    let result = match tcp {
        None => replay_in_process(&script, &recorder, retry),
        Some(addr) => replay_tcp(&addr, &script, &recorder, retry),
    };
    if timing {
        print_timing(&recorder);
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("viva-server-client: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The phase a script line's round trip is timed as: its command's
/// name, recorded into histogram `<name>.seconds`.
fn timing_name(line: &str) -> &'static str {
    Command::decode(line.trim()).map(|c| c.name()).unwrap_or("invalid")
}

/// Prints the per-command latency summary (count, p50, p99) from the
/// client recorder's histograms, sorted by command name.
fn print_timing(recorder: &Recorder) {
    let snap = recorder.snapshot();
    eprintln!("command                    count      p50      p99");
    for h in &snap.histograms {
        let name = h.name.strip_suffix(".seconds").unwrap_or(&h.name);
        eprintln!(
            "{name:<24} {count:>8} {p50:>8} {p99:>8}",
            count = h.count,
            p50 = format_seconds(h.quantile(0.5)),
            p99 = format_seconds(h.quantile(0.99)),
        );
    }
}

/// Renders a factor-of-two latency bound compactly (`<1ms`, `<16ms`…).
fn format_seconds(s: f64) -> String {
    if s < 1e-3 {
        "<1ms".to_owned()
    } else if s < 1.0 {
        format!("<{:.0}ms", (s * 1e3).ceil())
    } else {
        format!("<{s:.0}s")
    }
}

/// `--profile`: fetch the server's recent span trees for one session
/// and print the per-phase breakdown — which commands ran, and inside
/// them, where the nanoseconds went (`session.lock`, `session.render`,
/// `journal.append`, ...). Requires a server started with tracing on
/// (`viva-server --self-trace`).
fn profile_tcp(addr: &str, session: &str, retries: u32) -> Result<(), String> {
    let (mut reader, mut writer) = connect(addr, retries)?;
    let cmd = Command::Spans { session: Some(session.to_owned()), limit: Some(64) };
    writer
        .write_all(format!("{}\n", cmd.encode()).as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| format!("recv: {e}"))?;
    match Response::decode(line.trim()).map_err(|e| e.message)? {
        Response::Spans { dropped, spans } => {
            print_profile(session, dropped, &spans);
            Ok(())
        }
        Response::Error { message, .. } => Err(format!("profile {session:?}: {message}")),
        _ => Err(format!("unexpected response: {}", line.trim())),
    }
}

/// Renders the span trees as two tables: sampled commands (roots) and
/// the phases inside them, each with count, total and mean wall time,
/// phases also with their share of the commands' total.
fn print_profile(session: &str, dropped: u64, spans: &[SpanNode]) {
    #[derive(Default)]
    struct Acc {
        count: u64,
        total_ns: u64,
    }
    let mut commands: BTreeMap<&str, Acc> = BTreeMap::new();
    let mut phases: BTreeMap<&str, Acc> = BTreeMap::new();
    let mut root_ns = 0u64;
    for s in spans {
        let bucket = if s.parent == 0 {
            root_ns += s.duration_ns;
            commands.entry(&s.name).or_default()
        } else {
            phases.entry(&s.name).or_default()
        };
        bucket.count += 1;
        bucket.total_ns += s.duration_ns;
    }
    let trees: u64 = commands.values().map(|a| a.count).sum();
    println!(
        "profile of session {session:?}: {trees} sampled command trees, {} spans{}",
        spans.len(),
        if dropped > 0 { format!(" ({dropped} older spans dropped)") } else { String::new() }
    );
    if trees == 0 {
        println!("no sampled spans for this session yet (is tracing on? is the sample rate 1-in-N?)");
        return;
    }
    println!("{:<24} {:>6} {:>10} {:>10}", "command", "count", "total", "mean");
    for (name, a) in &commands {
        println!(
            "{name:<24} {:>6} {:>10} {:>10}",
            a.count,
            format_ns(a.total_ns),
            format_ns(a.total_ns / a.count.max(1)),
        );
    }
    if !phases.is_empty() {
        println!();
        println!("{:<24} {:>6} {:>10} {:>10} {:>6}", "phase", "count", "total", "mean", "share");
        for (name, a) in &phases {
            println!(
                "{name:<24} {:>6} {:>10} {:>10} {:>5.1}%",
                a.count,
                format_ns(a.total_ns),
                format_ns(a.total_ns / a.count.max(1)),
                100.0 * a.total_ns as f64 / root_ns.max(1) as f64,
            );
        }
    }
}

/// Compact wall-time rendering for the profile tables.
fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Replays against an embedded server: the deterministic mode golden
/// transcripts are recorded in.
fn replay_in_process(script: &str, recorder: &Recorder, retries: u32) -> Result<(), String> {
    let server = Server::new(ServerLimits::default());
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in script.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let phase = recorder.is_enabled().then(|| recorder.phase(timing_name(line)));
        let mut retry = Retry::new(retries);
        let mut response = server.handle_line(line);
        while let Some(hint) = response.as_deref().and_then(overload_hint) {
            let Some(delay) = retry.next_delay(hint) else { break };
            std::thread::sleep(delay);
            response = server.handle_line(line);
        }
        drop(phase);
        if let Some(response) = response {
            writeln!(out, "{response}").map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Connects, retrying refused/unreachable servers on the given policy.
fn connect(addr: &str, retries: u32) -> Result<(BufReader<TcpStream>, TcpStream), String> {
    let mut retry = Retry::new(retries);
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) => match retry.next_delay(0) {
                Some(delay) => std::thread::sleep(delay),
                None => return Err(format!("connect {addr}: {e}")),
            },
        }
    };
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((reader, stream))
}

/// `--follow`: subscribe to a live session and print every line the
/// server pushes. Three resume paths, all converging on `subscribe`:
///
/// * a **`lagging` push** (this subscriber fell behind and its queue
///   was shed) re-subscribes from the pushed `resume_seq` on the same
///   connection — one snapshot delta resynchronizes;
/// * a **dropped connection** reconnects with the retry backoff and
///   re-subscribes from just after the last delta printed;
/// * the **first** subscribe sends no `from_seq` and receives the full
///   current view as its opening snapshot.
///
/// Exits cleanly when the server goes away for good (retry budget
/// spent after at least one successful subscription).
fn follow_tcp(addr: &str, session: &str, retries: u32) -> Result<(), String> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut from_seq: Option<u64> = None;
    let mut subscribed_once = false;
    loop {
        let (mut reader, mut writer) = match connect(addr, retries) {
            Ok(rw) => rw,
            Err(e) if subscribed_once => {
                eprintln!("viva-server-client: follow: server is gone ({e}); exiting");
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let sub = Command::Subscribe { session: session.to_owned(), from_seq };
        if writer.write_all(format!("{}\n", sub.encode()).as_bytes()).is_err() {
            continue; // connection died immediately; reconnect
        }
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break, // reconnect and resume
                Ok(_) => {}
            }
            let text = line.trim_end();
            writeln!(out, "{text}").map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            if Push::is_push(text) {
                match Push::decode(text) {
                    Ok(Push::Delta { seq, .. }) => from_seq = Some(seq + 1),
                    Ok(Push::Lagging { resume_seq, .. }) => {
                        from_seq = Some(resume_seq);
                        let resub =
                            Command::Subscribe { session: session.to_owned(), from_seq };
                        if writer.write_all(format!("{}\n", resub.encode()).as_bytes()).is_err() {
                            break;
                        }
                    }
                    Err(_) => {}
                }
            } else {
                match Response::decode(text) {
                    Ok(Response::Subscribed { .. }) => subscribed_once = true,
                    Ok(Response::Error { .. }) => {
                        return Err(format!("follow {session:?}: {text}"));
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Replays against a live TCP server, printing its responses. A shed
/// command is re-sent on the retry policy; a connection the server
/// closed (drain, idle timeout) is re-established if retries remain.
fn replay_tcp(addr: &str, script: &str, recorder: &Recorder, retries: u32) -> Result<(), String> {
    let (mut reader, mut writer) = connect(addr, retries)?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in script.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let phase = recorder.is_enabled().then(|| recorder.phase(timing_name(line)));
        let mut retry = Retry::new(retries);
        let response = loop {
            writer
                .write_all(format!("{line}\n").as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            let mut response = String::new();
            let n = reader.read_line(&mut response).map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                // The server closed the connection (drain or timeout):
                // reconnect and re-send if the budget allows.
                let Some(delay) = retry.next_delay(0) else {
                    return Err("server closed the connection mid-script".to_owned());
                };
                std::thread::sleep(delay);
                (reader, writer) = connect(addr, retries)?;
                continue;
            }
            match overload_hint(&response) {
                Some(hint) => match retry.next_delay(hint) {
                    Some(delay) => std::thread::sleep(delay),
                    None => break response,
                },
                None => break response,
            }
        };
        drop(phase);
        out.write_all(response.as_bytes()).map_err(|e| e.to_string())?;
    }
    Ok(())
}
