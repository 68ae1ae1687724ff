//! The `viva-server` binary: serve the analysis protocol over stdio
//! (default, single analyst) or TCP (shared, worker pool).
//!
//! ```sh
//! # Single-session pipe mode — replays a script deterministically:
//! viva-server --stdio < session.script > transcript.ndjson
//!
//! # Same replay with self-profiling on; the transcript is unchanged
//! # and the Prometheus-style exposition lands in metrics.txt at EOF:
//! viva-server --stdio --metrics-out metrics.txt < session.script > transcript.ndjson
//!
//! # Shared server:
//! viva-server --tcp 127.0.0.1:7878 --workers 8 --max-sessions 64
//!
//! # Room for the 100k-host scale (the default budget is 100,000
//! # containers per loaded trace):
//! viva-server --tcp 127.0.0.1:7878 --max-containers 200000
//! ```

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use viva_server::{serve_tcp, Server, ServerLimits, SessionRegistry};
use viva_obs::{Recorder, Tracer};

struct Args {
    tcp: Option<String>,
    workers: usize,
    max_sessions: Option<usize>,
    max_containers: Option<usize>,
    max_relax_steps: Option<u64>,
    metrics_out: Option<String>,
    max_inflight: Option<usize>,
    io_timeout_ms: Option<u64>,
    checkpoint_dir: Option<String>,
    journal_dir: Option<String>,
    journal_sync_every: Option<u32>,
    interactive_deadlines: bool,
    self_trace: Option<String>,
    trace_seed: u64,
    trace_sample: u64,
    check_trace: Option<String>,
}

const USAGE: &str = "usage: viva-server [--stdio | --tcp ADDR] [--workers N] \
                     [--max-sessions N] [--max-containers N] [--max-relax-steps N] \
                     [--metrics-out PATH] [--max-inflight N] [--io-timeout-ms N] \
                     [--checkpoint-dir DIR] [--journal-dir DIR] [--journal-sync-every N] \
                     [--interactive-deadlines] [--self-trace DIR] \
                     [--trace-seed N] [--trace-sample N] [--check-trace FILE]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tcp: None,
        workers: 4,
        max_sessions: None,
        max_containers: None,
        max_relax_steps: None,
        metrics_out: None,
        max_inflight: None,
        io_timeout_ms: None,
        checkpoint_dir: None,
        journal_dir: None,
        journal_sync_every: None,
        interactive_deadlines: false,
        self_trace: None,
        trace_seed: 42,
        trace_sample: 1,
        check_trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--stdio" => args.tcp = None,
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_owned())?;
            }
            "--max-sessions" => {
                args.max_sessions = Some(
                    value("--max-sessions")?
                        .parse()
                        .map_err(|_| "--max-sessions needs an integer".to_owned())?,
                );
            }
            "--max-containers" => {
                args.max_containers = Some(
                    value("--max-containers")?
                        .parse()
                        .map_err(|_| "--max-containers needs an integer".to_owned())?,
                );
            }
            "--max-relax-steps" => {
                args.max_relax_steps = Some(
                    value("--max-relax-steps")?
                        .parse()
                        .map_err(|_| "--max-relax-steps needs an integer".to_owned())?,
                );
            }
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--max-inflight" => {
                args.max_inflight = Some(
                    value("--max-inflight")?
                        .parse()
                        .map_err(|_| "--max-inflight needs an integer".to_owned())?,
                );
            }
            "--io-timeout-ms" => {
                args.io_timeout_ms = Some(
                    value("--io-timeout-ms")?
                        .parse()
                        .map_err(|_| "--io-timeout-ms needs an integer".to_owned())?,
                );
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(value("--checkpoint-dir")?),
            "--journal-dir" => args.journal_dir = Some(value("--journal-dir")?),
            "--journal-sync-every" => {
                args.journal_sync_every = Some(
                    value("--journal-sync-every")?
                        .parse()
                        .map_err(|_| "--journal-sync-every needs an integer".to_owned())?,
                );
            }
            "--interactive-deadlines" => args.interactive_deadlines = true,
            "--self-trace" => args.self_trace = Some(value("--self-trace")?),
            "--trace-seed" => {
                args.trace_seed = value("--trace-seed")?
                    .parse()
                    .map_err(|_| "--trace-seed needs an integer".to_owned())?;
            }
            "--check-trace" => args.check_trace = Some(value("--check-trace")?),
            "--trace-sample" => {
                args.trace_sample = value("--trace-sample")?
                    .parse()
                    .map_err(|_| "--trace-sample needs an integer".to_owned())?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Dumps the full (wall-clock-inclusive) exposition: the server scope
/// first, then every live session, sorted by name.
fn write_metrics(server: &Server, path: &str) -> std::io::Result<()> {
    let mut text = viva_obs::snapshot_to_text("server", &server.recorder().snapshot());
    for name in server.registry().names() {
        let Some(handle) = server.registry().peek(&name) else { continue };
        let snap = SessionRegistry::lock_session(&handle).analysis.recorder().snapshot();
        text.push_str(&viva_obs::snapshot_to_text(&name, &snap));
    }
    std::fs::write(path, text)
}

/// Exports the tracer's finished spans as a viva trace — viva
/// observing viva. Deterministic for a fixed script, seed, and sample
/// rate: the export is built from logical ticks, never wall time.
fn write_selftrace(server: &Server, dir: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let csv = viva_server::selftrace::export_csv(server.tracer());
    std::fs::write(std::path::Path::new(dir).join("selftrace.csv"), csv)
}

/// `--check-trace FILE`: strict-load a CSV trace from disk and print a
/// one-line summary. Exits non-zero on the first malformed record —
/// `ci.sh` uses this to hold the self-trace export to the same ingest
/// bar as any real trace.
fn check_trace(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let report = viva_trace::TraceLoader::new()
        .mode(viva_trace::RecoveryMode::Strict)
        .load_str(&text)
        .map_err(|e| format!("strict load {path}: {e}"))?;
    let t = &report.trace;
    Ok(format!(
        "{path}: ok — {} containers, {} metrics, span {}..{}",
        t.containers().len(),
        t.metrics().len(),
        t.start(),
        t.end()
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("viva-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.check_trace {
        return match check_trace(path) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("viva-server: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut limits = ServerLimits::default();
    if let Some(n) = args.max_sessions {
        limits.max_sessions = n;
    }
    if let Some(n) = args.max_containers {
        // The container budget of every `load_trace` and `restore`; the
        // other budget fields keep their defaults.
        limits.load_budget.max_containers = n;
    }
    if let Some(n) = args.max_relax_steps {
        limits.max_relax_steps = n;
    }
    if let Some(n) = args.max_inflight {
        limits.max_inflight_commands = n;
    }
    if let Some(ms) = args.io_timeout_ms {
        // 0 disables the read/write timeouts entirely.
        limits.io_timeout_ms = if ms == 0 { None } else { Some(ms) };
    }
    if let Some(dir) = &args.checkpoint_dir {
        limits.checkpoint_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(dir) = &args.journal_dir {
        limits.journal_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(n) = args.journal_sync_every {
        limits.journal_sync_every = n;
    }
    if args.interactive_deadlines {
        // Opt-in: deadline enforcement reads the wall clock, so replays
        // with deadlines on are not bound by the golden transcripts.
        limits.deadlines = viva_server::DeadlineBudgets::interactive();
    }
    // `--metrics-out` turns observability on; metrics never change a
    // response byte, so a metrics-on replay still matches the golden
    // transcript. The exposition is dumped when serving ends.
    // `--self-trace` additionally wires a sampling span tracer (one
    // ring per worker); the deterministic export of viva's own spans
    // as a viva trace is written to DIR when serving ends.
    let server = Arc::new(if args.metrics_out.is_some() || args.self_trace.is_some() {
        let recorder = if args.metrics_out.is_some() {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        let recorder = if args.self_trace.is_some() {
            let shards = if args.tcp.is_some() { args.workers.max(1) } else { 1 };
            recorder.with_tracer(Tracer::enabled(shards, args.trace_seed, args.trace_sample))
        } else {
            recorder
        };
        Server::with_observability(limits, recorder)
    } else {
        Server::new(limits)
    });
    // Crash recovery: every journal in the journal directory becomes a
    // live session again before the first command is read.
    if args.journal_dir.is_some() {
        for name in server.recover_journals() {
            eprintln!("viva-server: recovered live session {name:?} from its journal");
        }
    }
    match args.tcp {
        None => {
            if let Err(e) = server.serve_stdio() {
                eprintln!("viva-server: stdio: {e}");
                return ExitCode::FAILURE;
            }
            if let Some(path) = &args.metrics_out {
                if let Err(e) = write_metrics(&server, path) {
                    eprintln!("viva-server: metrics-out {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if let Some(dir) = &args.self_trace {
                if let Err(e) = write_selftrace(&server, dir) {
                    eprintln!("viva-server: self-trace {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        Some(addr) => {
            let listener = match TcpListener::bind(&addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("viva-server: bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "viva-server: listening on {} with {} workers",
                listener.local_addr().map(|a| a.to_string()).unwrap_or(addr),
                args.workers
            );
            for worker in serve_tcp(listener, args.workers, Arc::clone(&server)) {
                // The pool runs for the life of the process.
                let _ = worker.join();
            }
            if let Some(path) = &args.metrics_out {
                if let Err(e) = write_metrics(&server, path) {
                    eprintln!("viva-server: metrics-out {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if let Some(dir) = &args.self_trace {
                if let Err(e) = write_selftrace(&server, dir) {
                    eprintln!("viva-server: self-trace {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
