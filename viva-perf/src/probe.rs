//! `--probe <name>`: small commands that reproduce the faults the
//! benchmark's workloads expose, one number each (see README.md).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use viva_platform::generators::{self, TwoClustersConfig};
use viva_server::{serve_tcp, Command, Server, ServerLimits};
use viva_simflow::TracingConfig;
use viva_trace::RecoveryMode;
use viva_workloads::{run_dt, Deployment, DtConfig};

use crate::util::{median, ms};

pub const NAMES: &str = "decode | sleep | budget | expand";

pub fn run(name: &str) -> Result<(), String> {
    match name {
        "decode" => decode(),
        "sleep" => sleep(),
        "budget" => budget(),
        "expand" => expand(),
        _ => return Err(format!("unknown probe {name:?}; one of {NAMES}")),
    }
    Ok(())
}

/// Fault 1: `Command::decode` of a `load_trace` line grows
/// quadratically with the line's length.
fn decode() {
    let p = generators::two_clusters(&TwoClustersConfig::default()).expect("two-cluster platform");
    let tracing = TracingConfig {
        record_messages: false,
        record_accounts: false,
    };
    let run = run_dt(
        p,
        &DtConfig::default(),
        Deployment::Sequential,
        Some(tracing),
    );
    let csv = viva_trace::export::to_csv(&run.trace.expect("traced run"));
    for kb in [32usize, 128, 512] {
        let mut text = String::new();
        while text.len() < kb * 1024 {
            text.push_str(&csv);
        }
        let cut = text[..kb * 1024].rfind('\n').unwrap_or(0);
        let line = Command::LoadTrace {
            session: "s".into(),
            mode: RecoveryMode::Lenient,
            text: text[..cut].to_owned(),
            trace: None,
        }
        .encode();
        let t = Instant::now();
        Command::decode(&line).expect("valid line");
        println!(
            "decode load_trace line of {:>4} KB: {:>9.1} ms",
            line.len() / 1024,
            ms(t.elapsed())
        );
    }
}

/// Fault 2: an idle shard sleeps 1 ms per empty tick, so a request that
/// arrives on a schedule waits for the sleep to end.
fn sleep() {
    let server = Arc::new(Server::new(ServerLimits::default()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local address");
    let shards = serve_tcp(listener, 1, Arc::clone(&server));
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut ping = |gap: Duration| {
        let mut samples = Vec::new();
        for _ in 0..400 {
            thread::sleep(gap);
            let t = Instant::now();
            writer
                .write_all(b"{\"cmd\":\"ping\"}\n")
                .expect("send ping");
            let mut line = String::new();
            reader.read_line(&mut line).expect("read pong");
            samples.push(ms(t.elapsed()));
        }
        median(&samples)
    };
    let back_to_back = ping(Duration::ZERO);
    let paced = ping(Duration::from_micros(2500));
    println!(
        "ping p50 back to back: {:.3} ms; one every 2.5 ms: {:.3} ms",
        back_to_back, paced
    );
    writer
        .write_all(b"{\"cmd\":\"shutdown\"}\n")
        .expect("send shutdown");
    for h in shards {
        h.join().expect("shard thread ends cleanly");
    }
}

/// Fault 3: the default load budget refuses the 100k-host grid.
fn budget() {
    let text = crate::zoom::grid_csv(1);
    let server = Server::new(ServerLimits::default());
    let answer = server
        .execute(Command::LoadTrace {
            session: "z".into(),
            mode: RecoveryMode::Strict,
            text,
            trace: None,
        })
        .encode();
    println!("load_trace of the 100,111-container grid with ServerLimits::default(): {answer}");
}

/// Expanding one collapsed site of the 100k-host grid (10,000 hosts).
fn expand() {
    let text = crate::zoom::grid_csv(1);
    let server = Server::new(crate::zoom::limits());
    server.execute(Command::LoadTrace {
        session: "z".into(),
        mode: RecoveryMode::Strict,
        text,
        trace: None,
    });
    for cmd in ["collapse", "expand"] {
        let line = format!(r#"{{"cmd":"{cmd}","session":"z","container":"site0"}}"#);
        let t = Instant::now();
        let answer = server.handle_line(&line).expect("answer");
        println!(
            "{cmd} site0 (10,000 hosts of 100,000): {:>9.1} ms  {answer}",
            ms(t.elapsed())
        );
    }
}
