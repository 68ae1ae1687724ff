//! Viva observes viva: export the server's own span records as a viva
//! trace.
//!
//! The dogfooding loop closes here. A tracing server accumulates
//! [`SpanRecord`]s — one causal tree per command — and this module
//! folds them into the paper's own trace model:
//!
//! * **shards → containers** — a `viva-server` cluster holding one
//!   `Host` per shard worker, exactly like a cluster of compute hosts;
//! * **command classes → metrics** — one variable per
//!   [`CommandClass`] (`control`, `interact`, `load`, `relax`,
//!   `render`), unit `ticks`;
//! * **span durations → signal values** — each command root sets its
//!   class's variable on its shard's host to the root's logical
//!   duration at its logical start time;
//! * **spans → states** — every span becomes a state interval on its
//!   shard's host, so the nested phase structure (`render` ▸
//!   `server.cmd.render` ▸ `session.render`) shows up as the same
//!   nested state blocks §3 draws for MPI call stacks.
//!
//! A phase span joins the tree that is current on its own thread and
//! records that tree's shard, so a trace never has a parent and child
//! on different shards, and the export has no links.
//!
//! Everything exported is derived from **logical ticks**, never wall
//! time, so two replays of the same script with the same sampling seed
//! export byte-identical CSV — which is exactly what lets a viva
//! session load, aggregate, and render its own server's behaviour
//! deterministically (`ci.sh obs-smoke` holds it to that).

use viva_obs::{SpanId, SpanRecord, Tracer};
use viva_trace::{ContainerKind, Trace, TraceBuilder};

use crate::protocol::CommandClass;

/// Snapshots `tracer`'s finished spans into viva's CSV trace format (the
/// same dialect [`viva_trace::export::to_csv`] writes and the strict
/// loader reads back). Returns the CSV text; an idle tracer yields a
/// valid empty trace.
pub fn export_csv(tracer: &Tracer) -> String {
    let (records, _dropped) = tracer.finished_spans();
    viva_trace::export::to_csv(&build_trace(&records, tracer.shard_count().max(1)))
}

/// Folds finished span records into a [`Trace`]: `shards` hosts under
/// one `viva-server` cluster, one metric per command class, and a state
/// for every span.
pub fn build_trace(records: &[SpanRecord], shards: usize) -> Trace {
    let shards = shards.max(1);
    let mut b = TraceBuilder::new();
    let cluster = b
        .new_container(b.root(), "viva-server", ContainerKind::Cluster)
        .expect("root exists");
    let hosts: Vec<_> = (0..shards)
        .map(|s| {
            b.new_container(cluster, format!("shard-{s}"), ContainerKind::Host)
                .expect("cluster exists")
        })
        .collect();
    let metrics: Vec<_> =
        CommandClass::ALL.iter().map(|c| b.metric(c.label(), "ticks")).collect();
    let host = |shard: u16| hosts[shard as usize % shards];

    // One deterministic order for everything: records sorted by start
    // tick (ticks are unique — the tracer clock is a shared counter).
    let mut ordered: Vec<&SpanRecord> = records.iter().collect();
    ordered.sort_by_key(|r| (r.start_tick, r.id));

    // Command roots bill their logical duration to their class metric.
    // Global start-tick order makes each per-host signal monotone.
    for r in ordered.iter().filter(|r| r.parent == SpanId::NONE) {
        if let Some(class) = CommandClass::of_name(r.name) {
            let metric = metrics[CommandClass::ALL.iter().position(|c| *c == class).unwrap()];
            let _ = b.set_variable(
                r.start_tick as f64,
                host(r.shard),
                metric,
                r.duration_ticks() as f64,
            );
        }
    }

    // Spans as state intervals. Within one shard, spans nest strictly
    // (one worker thread per shard), so replaying push/pop events in
    // tick order reconstructs the stack exactly; a record that still
    // manages to violate nesting is skipped, not fatal.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(ordered.len() * 2);
    for (i, r) in ordered.iter().enumerate() {
        events.push((r.start_tick, true, i));
        events.push((r.end_tick, false, i));
    }
    events.sort_unstable();
    for (tick, is_push, i) in events {
        let r = ordered[i];
        if is_push {
            let _ = b.push_state(tick as f64, host(r.shard), r.name);
        } else {
            let _ = b.pop_state(tick as f64, host(r.shard));
        }
    }

    let end = ordered.iter().map(|r| r.end_tick).max().map_or(1.0, |t| (t + 1) as f64);
    b.finish(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use viva_obs::Recorder;

    /// Drives a sample-everything tracer through two shards' worth of
    /// command trees and checks every leg of the mapping.
    fn traced() -> Tracer {
        let t = Tracer::enabled(2, 7, 1);
        let r = Recorder::disabled().with_tracer(t.clone());
        {
            let _root = t.root(0, "render", "demo");
            let _lock = r.phase("session.lock");
            drop(r.phase("session.render"));
        }
        {
            let _root = t.root(1, "relax", "demo");
            drop(r.phase("layout.step"));
        }
        drop(t.root(0, "stats", ""));
        t
    }

    #[test]
    fn shards_become_hosts_and_classes_become_metrics() {
        let (records, _) = traced().finished_spans();
        let trace = build_trace(&records, 2);
        let names: Vec<_> =
            trace.containers().iter().map(|c| c.name().to_owned()).collect();
        assert!(names.contains(&"viva-server".to_owned()));
        assert!(names.contains(&"shard-0".to_owned()));
        assert!(names.contains(&"shard-1".to_owned()));
        for class in CommandClass::ALL {
            assert!(
                trace.metric_id(class.label()).is_some(),
                "metric {} missing",
                class.label()
            );
        }
        assert!(trace.links().is_empty(), "phases stay on their root's shard");
    }

    #[test]
    fn export_round_trips_through_the_strict_loader() {
        let csv = export_csv(&traced());
        let trace = viva_trace::export::from_csv(&csv).expect("strict parse");
        let csv2 = viva_trace::export::to_csv(&trace);
        assert_eq!(csv, csv2, "export is a fixed point of parse∘export");
    }

    #[test]
    fn same_script_same_seed_exports_identically() {
        let a = export_csv(&traced());
        let b = export_csv(&traced());
        assert_eq!(a, b, "ticks, not wall time, order the export");
    }

    #[test]
    fn empty_tracer_exports_a_loadable_trace() {
        let t = Tracer::enabled(1, 0, 1);
        let csv = export_csv(&t);
        assert!(viva_trace::export::from_csv(&csv).is_ok());
    }
}
