//! Shared-trace economics of the `TraceStore` (DESIGN.md §15): a
//! thousand attached sessions cost one parsed trace and one
//! aggregation index, verified by `Arc` accounting — not by trusting
//! any bookkeeping the store itself reports.
//!
//! 1. **1k-session soak** — `load_trace` once under a store name, then
//!    1000 `attach`es. Every session shares the *same* allocation: the
//!    stored trace's `Arc` strong count is exactly
//!    `1 (store) + sessions`, and the store's own `sessions` figure
//!    agrees.
//! 2. **Release accounting** — closing sessions drops the count
//!    one-for-one; the store never pins a session.
//! 3. **`drop_trace`** — removes the name (second drop is a typed
//!    `no_trace`), new attaches fail, but sessions already attached
//!    keep working: their `Arc` keeps the trace alive.

use std::sync::Arc;

use viva::Theme;
use viva_server::protocol::{Command, ErrorKind, Response};
use viva_server::{Server, ServerLimits};
use viva_trace::{ContainerKind, RecoveryMode, TraceBuilder};

/// A small two-cluster trace as CSV for `load_trace`.
fn trace_csv() -> String {
    let mut b = TraceBuilder::new();
    let power = b.metric("power", "MFlop/s");
    let used = b.metric("power_used", "MFlop/s");
    for cn in ["c1", "c2"] {
        let cl = b.new_container(b.root(), cn, ContainerKind::Cluster).unwrap();
        for i in 0..3 {
            let h = b.new_container(cl, format!("{cn}-h{i}"), ContainerKind::Host).unwrap();
            b.set_variable(0.0, h, power, 100.0).unwrap();
            b.set_variable(0.0, h, used, (20 * (i + 1)) as f64).unwrap();
        }
    }
    viva_trace::export::to_csv(&b.finish(10.0))
}

const SESSIONS: usize = 1000;

#[test]
fn thousand_attached_sessions_share_one_trace_allocation() {
    let server = Server::new(ServerLimits {
        max_sessions: SESSIONS + 1,
        ..ServerLimits::default()
    });
    let loaded = server.execute(Command::LoadTrace {
        session: "loader".to_owned(),
        mode: RecoveryMode::Strict,
        text: trace_csv(),
        trace: Some("soak".to_owned()),
    });
    assert!(matches!(loaded, Response::Loaded { .. }), "{loaded:?}");
    // Release the loader so only attached sessions hold references.
    let closed = server.execute(Command::CloseSession { session: "loader".to_owned() });
    assert!(matches!(closed, Response::Closed { .. }), "{closed:?}");

    for i in 0..SESSIONS {
        let attached = server.execute(Command::Attach {
            session: format!("analyst-{i}"),
            trace: "soak".to_owned(),
        });
        assert!(matches!(attached, Response::Attached { .. }), "attach {i}: {attached:?}");
    }
    assert_eq!(server.registry().len(), SESSIONS);

    // The ground truth: the stored trace's Arc strong count is the
    // store's own reference plus exactly one per attached session —
    // 1000 sessions never cloned the trace data.
    let stored = server.store().get("soak").expect("stored trace");
    assert_eq!(
        Arc::strong_count(&stored.trace),
        1 + 1 + SESSIONS, // store + our probe + one per session
        "every attach shares the stored allocation"
    );
    // The shared index is held by the store and every session alike.
    assert_eq!(Arc::strong_count(&stored.index), 1 + 1 + SESSIONS);

    // The store's listing agrees with the Arc accounting.
    let listing = server.store().list();
    assert_eq!(listing.len(), 1);
    assert_eq!(listing[0].sessions as usize, SESSIONS + 1, "probe counts too");
    drop(stored);

    // Closing sessions releases references one-for-one.
    for i in 0..SESSIONS / 2 {
        let closed = server.execute(Command::CloseSession { session: format!("analyst-{i}") });
        assert!(matches!(closed, Response::Closed { .. }), "{closed:?}");
    }
    let stored = server.store().get("soak").expect("still stored");
    assert_eq!(Arc::strong_count(&stored.trace), 1 + 1 + SESSIONS / 2);
}

#[test]
fn drop_trace_removes_the_name_but_not_live_sessions() {
    let server = Server::new(ServerLimits::default());
    let loaded = server.execute(Command::LoadTrace {
        session: "a".to_owned(),
        mode: RecoveryMode::Strict,
        text: trace_csv(),
        trace: Some("t".to_owned()),
    });
    assert!(matches!(loaded, Response::Loaded { .. }), "{loaded:?}");
    let attached = server.execute(Command::Attach {
        session: "b".to_owned(),
        trace: "t".to_owned(),
    });
    assert!(matches!(attached, Response::Attached { .. }), "{attached:?}");

    let dropped = server.execute(Command::DropTrace { trace: "t".to_owned() });
    assert!(matches!(dropped, Response::TraceDropped { .. }), "{dropped:?}");

    // The name is gone: re-drop and attach both fail typed.
    for resp in [
        server.execute(Command::DropTrace { trace: "t".to_owned() }),
        server.execute(Command::Attach { session: "c".to_owned(), trace: "t".to_owned() }),
    ] {
        match resp {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::NoTrace),
            other => panic!("expected no_trace, got {other:?}"),
        }
    }
    assert!(server.store().list().is_empty());

    // Sessions attached before the drop keep rendering — their Arc
    // keeps the trace alive without the store.
    for session in ["a", "b"] {
        let frame = server.execute(Command::Render {
            session: session.to_owned(),
            width: 320.0,
            height: 240.0,
            theme: Theme::Light,
            labels: false,
            zoom: None,
            pan_x: None,
            pan_y: None,
        });
        assert!(matches!(frame, Response::Frame { .. }), "{session}: {frame:?}");
    }
}

/// The wire protocol surfaces the store: `list_traces` reports name,
/// hash, dimensions, and sharing degree.
#[test]
fn list_traces_reports_sharing_over_the_wire() {
    let server = Server::new(ServerLimits::default());
    let line = Command::LoadTrace {
        session: "a".to_owned(),
        mode: RecoveryMode::Strict,
        text: trace_csv(),
        trace: Some("prod".to_owned()),
    }
    .encode();
    assert!(server.handle_line(&line).expect("response").starts_with("{\"ok\""));
    let line = Command::Attach { session: "b".to_owned(), trace: "prod".to_owned() }.encode();
    assert!(server.handle_line(&line).expect("response").starts_with("{\"ok\""));

    let listed = server.execute(Command::ListTraces);
    match listed {
        Response::TraceList { traces } => {
            assert_eq!(traces.len(), 1);
            let t = &traces[0];
            assert_eq!(t.name, "prod");
            assert_eq!(t.hash.len(), 16, "16 hex digit content hash: {}", t.hash);
            assert!(t.hash.chars().all(|c| c.is_ascii_hexdigit()));
            assert_eq!(t.sessions, 2, "loader session + one attach");
            assert!(t.containers > 0 && t.events > 0);
        }
        other => panic!("expected trace_list, got {other:?}"),
    }
}
