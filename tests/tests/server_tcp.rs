//! The event-driven TCP transport holds the same contract as stdio:
//!
//! 1. **Golden replay** — the checked-in session script replayed over a
//!    real socket, with metrics enabled, produces a transcript
//!    byte-identical to the checked-in golden file (and therefore to
//!    the stdio replay of the same script).
//! 2. **Pipelining** — a client that writes the entire script in one
//!    syscall gets every response, in order, unchanged: batching is a
//!    transport detail, not a semantic one.
//! 3. **Torn frames and slow loris** — a connection that dies
//!    mid-frame is counted and dropped without disturbing other
//!    connections; a peer that sends nothing is timed out by the
//!    readiness loop.
//! 4. **Drain** — `shutdown` over TCP finishes the in-flight
//!    transcript, then every shard worker exits and can be joined.
//! 5. **Wake-ups** — a shard blocked in its readiness wait is woken for
//!    a push queued by another shard and for a drain started on
//!    another shard, and its io-timeout deadline fires on time with no
//!    traffic at all.
//! 6. **Pushes and progress** — a push follows the response that
//!    caused it however the requests were batched, and a subscriber
//!    that only reads its pushes is making progress, so the io timeout
//!    leaves it alone.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use viva_server::protocol::Command;
use viva_server::{serve_tcp, Push, Response, Server, ServerLimits};

fn data(file: &str) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/data");
    std::fs::read_to_string(format!("{dir}/{file}")).expect("checked-in test data")
}

/// Starts a metrics-enabled server on an ephemeral port.
fn start(
    limits: ServerLimits,
    workers: usize,
) -> (Arc<Server>, std::net::SocketAddr, Vec<std::thread::JoinHandle<()>>) {
    let server = Arc::new(Server::with_metrics(limits));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    let handles = serve_tcp(listener, workers, Arc::clone(&server));
    (server, addr, handles)
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
}

/// Replays `script` over one connection, writing `chunk_lines` request
/// lines per syscall, and returns the transcript: each batch's
/// responses, with any pushes that arrive among them.
fn replay_tcp(addr: std::net::SocketAddr, script: &str, chunk_lines: usize) -> String {
    let stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let requests: Vec<&str> = script.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut transcript = String::new();
    for batch in requests.chunks(chunk_lines.max(1)) {
        let mut frame = String::new();
        for line in batch {
            frame.push_str(line);
            frame.push('\n');
        }
        // One syscall carries the whole batch; the shard must answer
        // every frame it finds in the read buffer.
        writer.write_all(frame.as_bytes()).expect("write batch");
        let mut responses = 0;
        while responses < batch.len() {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read response");
            assert!(!line.is_empty(), "connection closed mid-transcript");
            if !line.starts_with("{\"push\":") {
                responses += 1;
            }
            transcript.push_str(&line);
        }
    }
    transcript
}

/// The server-level stats line, for counter assertions.
fn stats_line(addr: std::net::SocketAddr) -> String {
    let mut stream = connect(addr);
    stream
        .write_all(format!("{}\n", Command::Stats { session: None, reset: false }.encode()).as_bytes())
        .expect("write stats");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read stats");
    line
}

fn counter(stats: &str, name: &str) -> u64 {
    // Counters encode as a {"name":value,...} object in the stats block.
    let needle = format!("\"{name}\":");
    let at = match stats.find(&needle) {
        Some(at) => at + needle.len(),
        None => return 0,
    };
    stats[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

/// Golden replay over a real socket, metrics on, byte-identical to the
/// checked-in transcript — line-at-a-time AND fully pipelined.
#[test]
fn golden_transcript_replays_byte_identically_over_tcp() {
    let script = data("server_session.script");
    let golden = data("server_session.golden");

    let (_one, addr, _handles) = start(ServerLimits::default(), 2);
    let line_at_a_time = replay_tcp(addr, &script, 1);
    assert_eq!(
        line_at_a_time, golden,
        "TCP replay must match the checked-in golden transcript"
    );

    // A fresh server, the whole script in one write: pipelined batching
    // must not change a byte either.
    let (_two, addr, _handles) = start(ServerLimits::default(), 2);
    let pipelined = replay_tcp(addr, &script, usize::MAX);
    assert_eq!(pipelined, golden, "pipelined replay must be byte-identical");
}

/// The other goldens over TCP, line at a time and fully pipelined. The
/// stream script puts each delta push right after the response that
/// caused it, so a pipelined client must see them in the same place as
/// a client that waits for every answer.
#[test]
fn lod_stats_and_stream_goldens_replay_byte_identically_over_tcp() {
    for name in ["server_lod", "server_stats", "server_stream"] {
        let script = data(&format!("{name}.script"));
        let golden = data(&format!("{name}.golden"));
        for (how, chunk_lines) in [("line at a time", 1), ("pipelined", usize::MAX)] {
            let (_server, addr, _handles) = start(ServerLimits::default(), 2);
            assert_eq!(replay_tcp(addr, &script, chunk_lines), golden, "{name} over TCP, {how}");
        }
    }
}

/// A subscriber that never writes after `subscribe` is still making
/// progress while deltas stream to it: with a 300 ms io timeout and an
/// append every ~100 ms for ~1.5 s, it keeps its one connection, sees
/// every delta, and no connection is timed out.
#[test]
fn reading_subscriber_is_not_timed_out_while_deltas_stream() {
    let (_server, addr, _handles) = start(
        ServerLimits { io_timeout_ms: Some(300), ..ServerLimits::default() },
        2,
    );
    let send = |writer: &mut TcpStream, cmd: Command| {
        writer
            .write_all(format!("{}\n", cmd.encode()).as_bytes())
            .expect("send command");
    };
    let append = |seq: u64, text: String| Command::Append { session: "live".into(), seq, text };
    let mut producer = connect(addr);
    let mut acks = BufReader::new(producer.try_clone().expect("clone"));
    let opener = "span,0.0,100.0\ncontainer,1,0,host,h0\nmetric,0,MFlop/s,power\nvar,1.0,1,0,1.0";
    send(&mut producer, append(1, opener.into()));
    assert!(read_line_within_2s(&mut acks, "opener ack").contains("\"ok\":\"appended\""));

    let mut subscriber = connect(addr);
    send(&mut subscriber, Command::Subscribe { session: "live".into(), from_seq: None });
    let mut pushes = BufReader::new(subscriber);
    assert!(read_line_within_2s(&mut pushes, "subscribed").contains("\"ok\":\"subscribed\""));
    assert!(read_line_within_2s(&mut pushes, "snapshot").contains("\"push\":\"delta\""));

    let last = 16u64;
    for seq in 2..=last {
        std::thread::sleep(Duration::from_millis(100));
        send(&mut producer, append(seq, format!("var,{seq}.0,1,0,{seq}.0")));
        assert!(read_line_within_2s(&mut acks, "ack").contains("\"ok\":\"appended\""));
    }
    for seq in 2..=last {
        let line = read_line_within_2s(&mut pushes, &format!("delta {seq}"));
        match Push::decode(line.trim_end()) {
            Ok(Push::Delta { seq: got, .. }) => assert_eq!(got, seq),
            other => panic!("expected delta {seq}: {other:?}"),
        }
    }
    assert_eq!(counter(&stats_line(addr), "server.io_timeouts"), 0);
}

/// A connection that dies mid-frame: complete frames before the tear
/// are answered, the residue is counted as torn, other connections are
/// untouched.
#[test]
fn torn_frame_is_counted_and_other_connections_survive() {
    let (_server, addr, _handles) = start(ServerLimits::default(), 2);

    let mut torn = connect(addr);
    torn.write_all(b"{\"cmd\":\"ping\"}\n{\"cmd\":\"pi").expect("write torn");
    let mut reader = BufReader::new(torn.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read pong");
    assert!(line.contains("pong"), "complete frame before the tear is answered: {line}");
    torn.shutdown(std::net::Shutdown::Write).expect("half-close");
    // The server drops the connection after counting the residue.
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drained to EOF");
    assert_eq!(rest, "", "no response for a torn frame");

    // A healthy connection on the same server still works (the stats
    // probe below is itself a fresh connection), and the tear was
    // counted exactly once.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = stats_line(addr);
        if counter(&stats, "server.torn_frames") == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "torn frame never counted: {stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A peer that connects and never sends a complete frame is timed out
/// by the readiness loop (slow-loris defense).
#[test]
fn slow_loris_connection_is_timed_out() {
    let (_server, addr, _handles) = start(
        ServerLimits { io_timeout_ms: Some(50), ..ServerLimits::default() },
        1,
    );
    let mut loris = connect(addr);
    loris.write_all(b"{\"cmd\":\"pi").expect("trickle");
    // Well past the timeout the server must have dropped us: the read
    // side sees EOF, not a hang.
    let mut reader = BufReader::new(loris.try_clone().expect("clone"));
    let mut out = String::new();
    reader.read_to_string(&mut out).expect("EOF after timeout");
    assert_eq!(out, "", "no response for an incomplete frame");

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = stats_line(addr);
        if counter(&stats, "server.io_timeouts") >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "io timeout never counted: {stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `shutdown` over TCP answers the in-flight transcript, then every
/// shard worker exits cleanly.
#[test]
fn drain_over_tcp_joins_all_shard_workers() {
    let (_server, addr, handles) = start(ServerLimits::default(), 4);
    let mut stream = connect(addr);
    stream
        .write_all(format!("{}\n{}\n", Command::Ping.encode(), Command::Shutdown.encode()).as_bytes())
        .expect("write drain");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("pong");
    assert!(line.contains("pong"), "{line}");
    line.clear();
    reader.read_line(&mut line).expect("shutdown ack");
    assert!(line.contains("shutdown"), "{line}");
    for h in handles {
        h.join().expect("shard worker exits after drain");
    }
}

/// Reads one line with a 2 s read timeout: a wake-up that never comes
/// shows as a timeout here rather than a hung test.
fn read_line_within_2s(reader: &mut BufReader<TcpStream>, what: &str) -> String {
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => line,
        other => panic!("{what}: no line within 2 s ({other:?})"),
    }
}

/// Pushes cross shards: with two shards, eight subscribers and one
/// producer (and no other traffic), some subscriber almost surely sits
/// on the shard the producer does not, blocked in its wait. Each append
/// must reach every subscriber promptly — the producer's shard wakes
/// the other one.
#[test]
fn pushes_wake_subscribers_on_the_other_shard() {
    let (_server, addr, _handles) = start(ServerLimits::default(), 2);
    let send = |writer: &mut TcpStream, cmd: Command| {
        writer
            .write_all(format!("{}\n", cmd.encode()).as_bytes())
            .expect("send command");
    };
    let append = |seq: u64, text: String| Command::Append {
        session: "live".into(),
        seq,
        text,
    };

    let mut producer = connect(addr);
    let mut acks = BufReader::new(producer.try_clone().expect("clone"));
    let opener = "span,0.0,100.0\ncontainer,1,0,host,h0\nmetric,0,MFlop/s,power\nvar,1.0,1,0,1.0";
    send(&mut producer, append(1, opener.into()));
    let ack = read_line_within_2s(&mut acks, "opener ack");
    assert!(
        matches!(Response::decode(ack.trim_end()), Ok(Response::Appended { seq: 1, .. })),
        "{ack}"
    );

    let mut subscribers: Vec<BufReader<TcpStream>> = (0..8)
        .map(|i| {
            let mut stream = connect(addr);
            send(&mut stream, Command::Subscribe { session: "live".into(), from_seq: None });
            let mut reader = BufReader::new(stream);
            let answer = read_line_within_2s(&mut reader, &format!("subscriber {i} answer"));
            assert!(answer.contains("\"ok\":\"subscribed\""), "{answer}");
            let snapshot = read_line_within_2s(&mut reader, &format!("subscriber {i} snapshot"));
            assert!(
                matches!(Push::decode(snapshot.trim_end()), Ok(Push::Delta { seq: 1, .. })),
                "{snapshot}"
            );
            reader
        })
        .collect();

    for seq in 2..=20u64 {
        send(&mut producer, append(seq, format!("var,{seq}.0,1,0,{seq}.0")));
        let ack = read_line_within_2s(&mut acks, &format!("ack {seq}"));
        assert!(ack.contains("\"ok\":\"appended\""), "{ack}");
        for (i, sub) in subscribers.iter_mut().enumerate() {
            let line = read_line_within_2s(sub, &format!("subscriber {i}, delta {seq}"));
            match Push::decode(line.trim_end()) {
                Ok(Push::Delta { seq: got, .. }) => assert_eq!(got, seq, "subscriber {i}"),
                other => panic!("subscriber {i} expected delta {seq}: {other:?}"),
            }
        }
    }
}

/// With no traffic at all, a shard's wait ends at its connection's
/// io-timeout deadline: an idle peer is dropped within 1 s of a 50 ms
/// timeout.
#[test]
fn idle_connection_is_dropped_at_its_deadline() {
    let (_server, addr, _handles) = start(
        ServerLimits { io_timeout_ms: Some(50), ..ServerLimits::default() },
        1,
    );
    let idle = connect(addr);
    let t0 = Instant::now();
    idle.set_read_timeout(Some(Duration::from_secs(2))).expect("read timeout");
    let mut buf = [0u8; 16];
    let n = (&idle).read(&mut buf).expect("EOF, not a read timeout");
    assert_eq!(n, 0, "the server closes without writing");
    let waited = t0.elapsed();
    assert!(waited < Duration::from_secs(1), "dropped after {waited:?}");
}

/// A drain reaches shards that sit blocked in their wait: with four
/// shards idle for a while, `shutdown` on one connection still ends
/// every worker promptly.
#[test]
fn drain_wakes_idle_shards() {
    let (_server, addr, handles) = start(ServerLimits::default(), 4);
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all(format!("{}\n", Command::Ping.encode()).as_bytes())
        .expect("write ping");
    assert!(read_line_within_2s(&mut reader, "pong").contains("pong"));
    // Let every shard finish its ticks and block.
    std::thread::sleep(Duration::from_millis(200));
    stream
        .write_all(format!("{}\n", Command::Shutdown.encode()).as_bytes())
        .expect("write shutdown");
    assert!(read_line_within_2s(&mut reader, "shutdown ack").contains("shutdown"));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for h in handles {
            h.join().expect("shard worker exits after drain");
        }
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("every shard exits within 5 s of the drain");
}
