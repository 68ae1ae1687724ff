//! The frame core behind both transports, [`FrameConn`]:
//!
//! 1. **Split invariance** — a script fed in any byte split, down to
//!    one byte per read, gives its golden transcript. That includes
//!    where each subscription push lands.
//! 2. **Stdio replays** — every checked-in golden replays through
//!    [`Server::serve`], whatever the size of the reader's buffer.
//! 3. **Stdio edge cases** — a line over `max_line_bytes` gets one
//!    `protocol` error and closes the connection, whether it arrives
//!    whole or as a growing fragment. A frame that is not UTF-8 ends
//!    `serve` with `InvalidData` after the frames before it are
//!    answered.

use std::io::{self, BufReader};

use proptest::prelude::*;
use viva_server::protocol::{Command, ErrorKind, Response};
use viva_server::{FrameConn, Server, ServerLimits};

fn data(file: &str) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/data");
    std::fs::read_to_string(format!("{dir}/{file}")).expect("checked-in test data")
}

/// Feeds `script` to a fresh connection in chunks cut by `chunks`
/// (cycled), collecting what it owes after every chunk.
fn replay_split(script: &[u8], chunks: &[usize]) -> String {
    let server = Server::with_metrics(ServerLimits::default());
    let mut conn = FrameConn::new(&server);
    let mut out = Vec::new();
    let mut rest = script;
    for &n in chunks.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(n.min(rest.len()));
        conn.feed(chunk).expect("the scripts are UTF-8");
        out.extend_from_slice(conn.owed());
        conn.sent(conn.owed().len());
        rest = tail;
    }
    conn.eof();
    out.extend_from_slice(conn.owed());
    String::from_utf8(out).expect("responses are UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn any_byte_split_gives_the_golden_transcript(
        max in prop_oneof![Just(1usize), 2usize..64, 64usize..8192],
        cuts in proptest::collection::vec(0usize..1 << 20, 1..32),
    ) {
        let chunks: Vec<usize> = cuts.iter().map(|c| 1 + c % max).collect();
        for name in ["server_stream", "server_session"] {
            let script = data(&format!("{name}.script"));
            let golden = data(&format!("{name}.golden"));
            prop_assert_eq!(replay_split(script.as_bytes(), &chunks), golden);
        }
    }
}

#[test]
fn every_golden_replays_through_serve() {
    for name in ["server_session", "server_lod", "server_levels", "server_stats", "server_stream"] {
        let script = data(&format!("{name}.script"));
        let golden = data(&format!("{name}.golden"));
        for capacity in [7, 8 << 10] {
            let server = Server::with_metrics(ServerLimits::default());
            let mut out = Vec::new();
            let reader = BufReader::with_capacity(capacity, script.as_bytes());
            server.serve(reader, &mut out).expect("serve");
            assert_eq!(
                String::from_utf8(out).expect("utf8"),
                golden,
                "{name} through serve, {capacity}-byte reads"
            );
        }
    }
}

fn torn_frames(server: &Server) -> u64 {
    match server.execute(Command::Stats { session: None, reset: false }) {
        Response::Stats { server: block, .. } => block
            .counters
            .iter()
            .find(|(n, _)| n == "server.torn_frames")
            .map_or(0, |(_, v)| *v),
        other => panic!("{other:?}"),
    }
}

/// The fragment is read in 16-byte batches, so it passes the 64-byte
/// limit long before its newline arrives: one `protocol` error, then
/// the connection closes and the ping after it is never answered. The
/// fragment was answered, so it is not counted as torn.
#[test]
fn stdio_oversize_fragment_gets_one_protocol_error_then_closes() {
    let ping = format!("{}\n", Command::Ping.encode());
    let input = format!("{ping}{}\n{ping}", "x".repeat(200));
    // A 16-byte reader sees the line as a growing fragment; an 8 KiB
    // reader sees it as one complete frame. Both get the same answer.
    let serve = |capacity: usize| {
        let server =
            Server::with_metrics(ServerLimits { max_line_bytes: 64, ..ServerLimits::default() });
        let mut out = Vec::new();
        server
            .serve(BufReader::with_capacity(capacity, input.as_bytes()), &mut out)
            .expect("a protocol error is not an I/O error");
        assert_eq!(torn_frames(&server), 0);
        String::from_utf8(out).expect("utf8")
    };
    let out = serve(16);
    assert_eq!(out, serve(8 << 10), "the answer must not depend on the byte split");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out}");
    assert!(matches!(Response::decode(lines[0]), Ok(Response::Pong)), "{out}");
    match Response::decode(lines[1]) {
        Ok(Response::Error { kind: ErrorKind::Protocol, message }) => {
            assert_eq!(message, "request line exceeds the 64-byte limit");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn stdio_invalid_utf8_answers_earlier_frames_then_fails() {
    let server = Server::new(ServerLimits::default());
    let ping = format!("{}\n", Command::Ping.encode());
    let mut input = ping.clone().into_bytes();
    input.extend_from_slice(b"{\"cmd\":\"p\xffing\"}\n");
    input.extend_from_slice(ping.as_bytes());
    let mut out = Vec::new();
    let e = server.serve(&input[..], &mut out).expect_err("invalid UTF-8 ends serve");
    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    assert_eq!(String::from_utf8(out).expect("utf8"), format!("{}\n", Response::Pong.encode()));
}
