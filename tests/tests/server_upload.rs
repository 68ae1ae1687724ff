//! Multi-megabyte inline uploads over the wire.
//!
//! A `load_trace` request carries the whole trace CSV as one JSON
//! string, so the request codec must be linear in the line length: a
//! codec that re-scans the rest of the line per character needs hours
//! for the line below in a debug build. No timing is asserted; the test
//! finishing at all is the guard.

use viva::Theme;
use viva_server::{Command, Response, Server, ServerLimits};
use viva_trace::{export, ContainerKind, RecoveryMode, TraceBuilder};

/// A valid trace whose CSV is several megabytes: 4 sites × 5 clusters
/// × 10 hosts, two metrics sampled 400 times per host. Site names are
/// non-ASCII so the upload mixes multi-byte scalars with the newline
/// escapes of every CSV line.
fn big_trace_csv() -> String {
    let mut b = TraceBuilder::new();
    let power = b.metric("power", "MFlop/s");
    let used = b.metric("power_used", "MFlop/s");
    let mut hosts = Vec::new();
    for s in 0..4 {
        let site = b.new_container(b.root(), format!("sité-{s}"), ContainerKind::Site).unwrap();
        for c in 0..5 {
            let cluster =
                b.new_container(site, format!("c{s}-{c}"), ContainerKind::Cluster).unwrap();
            for h in 0..10 {
                let host = b
                    .new_container(cluster, format!("h{s}-{c}-{h}"), ContainerKind::Host)
                    .unwrap();
                hosts.push(host);
            }
        }
    }
    for step in 0..400 {
        let t = step as f64 * 2.5;
        for (i, &h) in hosts.iter().enumerate() {
            b.set_variable(t, h, power, 1000.0 + i as f64).unwrap();
            b.set_variable(t, h, used, ((i * 37 + step * 11) % 1000) as f64 + 0.25).unwrap();
        }
    }
    export::to_csv(&b.finish(1000.0))
}

fn load(text: String) -> Command {
    Command::LoadTrace { session: "big".into(), mode: RecoveryMode::Strict, text, trace: None }
}

#[test]
fn multi_megabyte_load_trace_line_loads_and_renders_like_execute() {
    let text = big_trace_csv();
    let line = load(text.clone()).encode();
    assert!(line.len() > 3 << 20, "upload line is only {} bytes", line.len());

    let wire = Server::new(ServerLimits::default());
    let answer = wire.handle_line(&line).expect("a load answers");
    assert!(answer.starts_with(r#"{"ok":"loaded","session":"big","#), "{answer}");

    let direct = Server::new(ServerLimits::default());
    assert!(matches!(direct.execute(load(text)), Response::Loaded { .. }));

    let render = Command::Render {
        session: "big".into(),
        width: 1024.0,
        height: 768.0,
        theme: Theme::Light,
        labels: true,
        zoom: None,
        pan_x: None,
        pan_y: None,
    }
    .encode();
    let frame = wire.handle_line(&render).expect("a render answers");
    assert_eq!(frame, direct.handle_line(&render).expect("a render answers"));
    match Response::decode(&frame).expect("the frame decodes") {
        decoded @ Response::Frame { .. } => assert_eq!(decoded.encode(), frame),
        other => panic!("expected a frame, got {other:?}"),
    }
}
