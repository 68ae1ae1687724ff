//! Observability guarantees of the serving stack:
//!
//! 1. **Zero perturbation** — replaying the checked-in golden script
//!    on a metrics-*enabled* server yields the same bytes as the
//!    checked-in golden transcript. Instrumentation may watch the
//!    pipeline; it may never change a response.
//! 2. **Snapshot determinism** — for an arbitrary gesture script, two
//!    fresh metrics-enabled servers finish with byte-identical `stats`
//!    responses: every counter, gauge, histogram sample count, and
//!    event the wire exposes is a pure function of the command
//!    history, never of wall time.
//! 3. **One timing primitive** — every timed scope is one phase, which
//!    feeds its `<name>.seconds` histogram and its span alike, with
//!    metrics alone, tracing alone, or both.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use viva::Theme;
use viva_obs::{Recorder, SpanId, Tracer};
use viva_server::protocol::{Command, Response};
use viva_server::{Server, ServerLimits, SessionRegistry};
use viva_trace::{ContainerKind, RecoveryMode, TraceBuilder};

/// The canonical two-cluster trace, as CSV for `load_trace`.
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

// ---------------------------------------------------------------------
// Golden transcript, metrics on
// ---------------------------------------------------------------------

#[test]
fn golden_transcript_is_unchanged_by_metrics() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/data");
    let script = std::fs::read_to_string(format!("{dir}/server_session.script"))
        .expect("checked-in script");
    let golden = std::fs::read_to_string(format!("{dir}/server_session.golden"))
        .expect("checked-in golden transcript");

    let server = Server::with_metrics(ServerLimits::default());
    let mut out = String::new();
    for line in script.lines() {
        if let Some(resp) = server.handle_line(line) {
            out.push_str(&resp);
            out.push('\n');
        }
    }
    assert_eq!(out, golden, "metrics-on replay must still match the golden bytes");

    // The recorder really was watching: the command counters add up to
    // the number of response lines the script produced.
    match server.execute(Command::Stats { session: None, reset: false }) {
        Response::Stats { server: block, .. } => {
            let total: u64 = block
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with("server.cmd."))
                .map(|(_, v)| *v)
                .sum();
            // +1 for the stats command itself.
            assert_eq!(total, golden.lines().count() as u64 + 1);
        }
        other => panic!("{other:?}"),
    }
}

// ---------------------------------------------------------------------
// Golden stats transcript: snapshot, atomic reset, zeroed follow-up
// ---------------------------------------------------------------------

/// The `stats` wire block — counters, histogram sample counts, exact
/// bucket bounds, and the `reset:true` snapshot-and-zero — replayed
/// against checked-in bytes. The reset response returns the pre-reset
/// values; the follow-up shows zeroed counters and histograms while
/// gauges (`server.sessions`) survive untouched.
#[test]
fn golden_stats_transcript_pins_reset_semantics() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/data");
    let script = std::fs::read_to_string(format!("{dir}/server_stats.script"))
        .expect("checked-in stats script");
    let golden = std::fs::read_to_string(format!("{dir}/server_stats.golden"))
        .expect("checked-in stats golden");

    let server = Server::with_metrics(ServerLimits::default());
    let mut out = String::new();
    for line in script.lines() {
        if let Some(resp) = server.handle_line(line) {
            out.push_str(&resp);
            out.push('\n');
        }
    }
    assert_eq!(out, golden, "stats replay must match the golden bytes");
}

// ---------------------------------------------------------------------
// One timing primitive
// ---------------------------------------------------------------------

/// Per-phase tallies of one run: histogram sample counts (server and
/// session recorders summed, keyed by phase name) and span counts.
type PhaseCounts = (BTreeMap<String, u64>, BTreeMap<String, u64>);

/// Drives every timed layer (load, slice, render with and without a
/// camera, aggregate, relax) through a server observed by `recorder`.
fn drive_phases(recorder: Recorder) -> PhaseCounts {
    let server = Server::with_observability(ServerLimits::default(), recorder);
    let s = || "a".to_owned();
    let render = |zoom| Command::Render {
        session: s(),
        width: 640.0,
        height: 480.0,
        theme: Theme::Light,
        labels: false,
        zoom,
        pan_x: None,
        pan_y: None,
    };
    let script = [
        Command::LoadTrace { session: s(), mode: RecoveryMode::Strict, text: trace_csv(), trace: None },
        Command::SetTimeSlice { session: s(), start: 2.0, end: 8.0 },
        render(None),
        render(Some(2.0)),
        Command::Aggregate { session: s(), metric: "power_used".into(), group: "c1".into() },
        Command::Relax { session: s(), steps: 5 },
    ];
    for cmd in &script {
        let resp = server.handle_line(&cmd.encode()).expect("a response");
        assert!(resp.starts_with("{\"ok\""), "{resp}");
    }
    let slot = server.registry().peek("a").expect("session a");
    let session = SessionRegistry::lock_session(&slot).analysis.recorder().snapshot();
    let mut histograms = BTreeMap::new();
    for h in server.recorder().snapshot().histograms.iter().chain(&session.histograms) {
        let phase = h.name.strip_suffix(".seconds").expect("every histogram is a phase's");
        *histograms.entry(phase.to_owned()).or_default() += h.count;
    }
    let mut spans = BTreeMap::new();
    let (records, _) = server.tracer().finished_spans();
    for r in records.iter().filter(|r| r.parent != SpanId::NONE) {
        *spans.entry(r.name.to_owned()).or_default() += 1;
    }
    (histograms, spans)
}

#[test]
fn every_phase_feeds_its_histogram_and_its_span_alike() {
    let tracer = || Tracer::enabled(1, 42, 1);
    let (both_hist, both_spans) = drive_phases(Recorder::enabled().with_tracer(tracer()));
    let names: BTreeSet<&String> = both_hist.keys().chain(both_spans.keys()).collect();
    for name in names {
        let hist = both_hist.get(name).copied().unwrap_or(0);
        let spans = both_spans.get(name).copied().unwrap_or(0);
        assert_eq!(hist, spans, "phase {name}: {hist} histogram samples, {spans} spans");
    }

    // Tracing alone registers no histogram, yet every deep layer still
    // shows up in the trace, exactly as often as with metrics on.
    let (hist, spans) = drive_phases(Recorder::disabled().with_tracer(tracer()));
    assert!(hist.is_empty(), "tracing only registered {hist:?}");
    for phase in ["agg.index.build", "agg.index.aggregate", "layout.step", "lod.cut", "session.render"]
    {
        assert!(spans.get(phase).is_some_and(|n| *n > 0), "no {phase} span in {spans:?}");
    }
    assert_eq!(spans, both_spans);

    // Metrics alone record no span and the same histogram samples.
    let (hist, spans) = drive_phases(Recorder::enabled());
    assert!(spans.is_empty(), "metrics only recorded {spans:?}");
    assert_eq!(hist, both_hist);
}

// ---------------------------------------------------------------------
// Snapshot determinism
// ---------------------------------------------------------------------

/// One interactive gesture against session "a", drawn from the values
/// the canonical trace actually contains (plus a few that fail — typed
/// errors must be deterministic too).
fn gesture() -> impl Strategy<Value = Command> {
    let s = || "a".to_owned();
    let container = || {
        prop_oneof![
            Just("c1".to_owned()),
            Just("c2".to_owned()),
            Just("c1-h0".to_owned()),
            Just("ghost".to_owned()),
        ]
    };
    prop_oneof![
        (0.0f64..12.0, 0.0f64..12.0).prop_map(move |(a, b)| Command::SetTimeSlice {
            session: "a".into(),
            start: a.min(b),
            end: a.max(b),
        }),
        container().prop_map(move |c| Command::Collapse { session: "a".into(), container: c }),
        container().prop_map(move |c| Command::Expand { session: "a".into(), container: c }),
        (0u32..4).prop_map(move |d| Command::CollapseAtDepth { session: "a".into(), depth: d }),
        Just(Command::ExpandAll { session: s() }),
        (1u64..40).prop_map(move |n| Command::Relax { session: "a".into(), steps: n }),
        (100.0f64..900.0).prop_map(move |w| Command::Render {
            session: "a".into(),
            width: w.floor(),
            height: 480.0,
            theme: Theme::Light,
            labels: false,
            zoom: None,
            pan_x: None,
            pan_y: None,
        }),
        Just(Command::Aggregate {
            session: s(),
            metric: "power_used".into(),
            group: "c1".into(),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Same script ⇒ identical `stats` bytes, server and session scope
    /// both. This is the wire-level face of the obs determinism
    /// contract: everything `stats` exposes is replay-stable.
    #[test]
    fn same_script_yields_identical_stats(cmds in proptest::collection::vec(gesture(), 1..16)) {
        let csv = trace_csv();
        let run = |cmds: &[Command]| -> (String, String) {
            let server = Server::with_metrics(ServerLimits::default());
            let loaded = server.execute(Command::LoadTrace {
                session: "a".into(),
                mode: RecoveryMode::Strict,
                text: csv.clone(),
                trace: None,
            });
            assert!(matches!(loaded, Response::Loaded { .. }), "{loaded:?}");
            let mut transcript = String::new();
            for cmd in cmds {
                transcript.push_str(&server.execute(cmd.clone()).encode());
                transcript.push('\n');
            }
            let stats = server.execute(Command::Stats { session: Some("a".into()), reset: false }).encode();
            (transcript, stats)
        };
        let (t1, s1) = run(&cmds);
        let (t2, s2) = run(&cmds);
        prop_assert_eq!(t1, t2, "transcripts diverged");
        prop_assert_eq!(s1, s2, "stats snapshots diverged");
    }
}
