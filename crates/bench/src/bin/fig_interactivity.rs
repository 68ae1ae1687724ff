//! Interactivity benchmark — the aggregation index against the naive
//! slice rescan, and the Barnes-Hut relax step.
//!
//! The paper's central interaction loop is: drag the time-slice cursor,
//! watch every visible node resize/refill instantly (§3.2.1). This
//! harness measures that loop on a deep synthetic trace (sites →
//! clusters → hosts, ≥ 50k timeline events in full mode):
//!
//! 1. **slice-change latency** — over a sweep of sliding windows, the
//!    Equation 1 queries a view makes for every node of the site-level
//!    frontier (`integrate` and `try_mean` of each mapped metric),
//!    through the [`AggIndex`] versus the naive subtree rescan
//!    (`integrate_group` and `try_mean_over_group`). Both must give
//!    equal values, every run;
//! 2. **relax latency** — layout iterations of the host-level session,
//!    on the threads the layout engine plans for its node count.
//!
//! Full mode asserts the ≥ 5× index speedup and writes
//! `BENCH_interactivity.json`; `--small` is a CI smoke mode that keeps
//! the value-equality assertion but skips the timing claim (timings on
//! a loaded CI box are noise) and leaves the committed JSON alone.

use std::time::Instant;

use viva::SessionBuilder;
use viva_agg::{integrate_group, try_mean_over_group, AggIndex, TimeSlice, ViewState};
use viva_trace::{ContainerId, ContainerKind, MetricId, Trace, TraceBuilder};

struct Scale {
    sites: usize,
    clusters: usize,
    hosts: usize,
    steps: usize,
    windows: usize,
    relax_steps: usize,
}

const FULL: Scale =
    Scale { sites: 4, clusters: 5, hosts: 25, steps: 120, windows: 30, relax_steps: 60 };
const SMALL: Scale = Scale { sites: 2, clusters: 2, hosts: 4, steps: 10, windows: 6, relax_steps: 10 };

/// A deep grid trace with exactly representable values: `power` is a
/// constant 100 MFlop/s per host and `power_used` steps through
/// multiples of 10 at integer times, so every space × time integral is
/// an integer and the indexed and naive paths cannot drift by even an
/// ulp.
fn build_trace(s: &Scale) -> (Trace, usize) {
    let mut b = TraceBuilder::new();
    let power = b.metric("power", "MFlop/s");
    let used = b.metric("power_used", "MFlop/s");
    let mut events = 0usize;
    let mut host_no = 0usize;
    for si in 0..s.sites {
        let site = b
            .new_container(b.root(), format!("site{si}"), ContainerKind::Site)
            .expect("site");
        for ci in 0..s.clusters {
            let cluster = b
                .new_container(site, format!("site{si}-cl{ci}"), ContainerKind::Cluster)
                .expect("cluster");
            for hi in 0..s.hosts {
                let host = b
                    .new_container(cluster, format!("site{si}-cl{ci}-h{hi}"), ContainerKind::Host)
                    .expect("host");
                b.set_variable(0.0, host, power, 100.0).expect("power");
                events += 1;
                for t in 0..=s.steps {
                    // Deterministic pseudo-load: phase-shifted per host.
                    let v = (((t + host_no * 7) % 11) * 10) as f64;
                    b.set_variable(t as f64, host, used, v).expect("used");
                    events += 1;
                }
                host_no += 1;
            }
        }
    }
    (b.finish(s.steps as f64), events)
}

/// The sliding slice windows the "cursor drag" sweeps through. Bounds
/// are computed in integers so every slice is exactly representable —
/// the value-equality assertion compares `f64`s bit for bit, and only
/// integer bounds keep merged-series and per-member integrals from
/// drifting by an ulp.
fn windows(s: &Scale) -> Vec<TimeSlice> {
    (0..s.windows)
        .map(|i| {
            let width = 1 + (i % 5) * (s.steps / 8).max(1);
            let start = (i * s.steps / s.windows).min(s.steps - 1);
            TimeSlice::new(start as f64, (start + width).min(s.steps) as f64)
        })
        .collect()
}

/// One Equation 1 answer: a node's integral and space-time mean.
type Answer = (f64, Option<f64>);

/// Sweeps every window over every `(node, metric)` pair with `query`,
/// exactly the aggregates a cursor drag recomputes. Returns the answers
/// and the sweep's latency in milliseconds.
fn sweep(
    windows: &[TimeSlice],
    pairs: &[(ContainerId, MetricId)],
    query: impl Fn(ContainerId, MetricId, TimeSlice) -> Answer,
) -> (Vec<Answer>, f64) {
    let t0 = Instant::now();
    let answers = windows
        .iter()
        .flat_map(|&w| pairs.iter().map(move |&(c, m)| (c, m, w)))
        .map(|(c, m, w)| std::hint::black_box(query(c, m, w)))
        .collect();
    (answers, t0.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let scale = if small { SMALL } else { FULL };
    let (trace, events) = build_trace(&scale);
    let hosts = scale.sites * scale.clusters * scale.hosts;
    println!(
        "Interactivity: {} hosts, {} timeline events ({} mode)",
        hosts,
        events,
        if small { "smoke" } else { "full" }
    );
    if !small {
        assert!(events >= 50_000, "full mode must exercise >= 50k events, got {events}");
    }

    // --- slice-change latency: indexed vs naive rescan ---------------
    // Site-level view: every node aggregates a deep subtree.
    let mut state = ViewState::new();
    state.collapse_at_depth(trace.containers(), 1);
    let frontier = state.visible(trace.containers());
    let metrics: Vec<MetricId> =
        ["power", "power_used"].iter().map(|n| trace.metric_id(n).expect("metric")).collect();
    let pairs: Vec<(ContainerId, MetricId)> =
        frontier.iter().flat_map(|&c| metrics.iter().map(move |&m| (c, m))).collect();
    let index = AggIndex::build(&trace);
    let naive_query = |c, m, w| {
        (integrate_group(&trace, m, c, w), try_mean_over_group(&trace, m, c, w))
    };
    let indexed_query = |c, m, w| (index.integrate(m, c, w), index.try_mean(m, c, w));

    let ws = windows(&scale);
    // Warm-up pass, then the timed sweep.
    sweep(&ws, &pairs, indexed_query);
    sweep(&ws, &pairs, naive_query);
    let (indexed, indexed_ms) = sweep(&ws, &pairs, indexed_query);
    let (naive, naive_ms) = sweep(&ws, &pairs, naive_query);
    let speedup = naive_ms / indexed_ms.max(1e-9);
    let values_equal = indexed == naive;
    assert!(values_equal, "indexed and naive aggregates diverged");

    println!(
        "  slice sweep ({} windows x {} nodes): naive {:.2} ms, indexed {:.2} ms, speedup {:.1}x",
        ws.len(),
        frontier.len(),
        naive_ms,
        indexed_ms,
        speedup
    );

    // --- relax latency ------------------------------------------------
    let mut session = SessionBuilder::new(trace).build();
    let nodes = session.layout().len();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let t0 = Instant::now();
    session.relax(scale.relax_steps);
    let relax_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "  relax ({} steps, {nodes} nodes, {cores} cores available): {relax_ms:.2} ms",
        scale.relax_steps
    );

    if small {
        println!("  smoke mode: value-equality check passed, timings not asserted");
        return;
    }

    assert!(
        speedup >= 5.0,
        "aggregation index speedup {speedup:.1}x below the 5x floor (naive {naive_ms:.2} ms, indexed {indexed_ms:.2} ms)"
    );

    let json = format!(
        "{{\n  \"benchmark\": \"interactivity\",\n  \"trace\": {{ \"hosts\": {hosts}, \"events\": {events} }},\n  \"slice_change\": {{\n    \"windows\": {},\n    \"frontier_nodes\": {},\n    \"naive_ms\": {naive_ms:.3},\n    \"indexed_ms\": {indexed_ms:.3},\n    \"speedup\": {speedup:.2},\n    \"values_equal\": {values_equal}\n  }},\n  \"relax\": {{\n    \"steps\": {},\n    \"nodes\": {nodes},\n    \"available_parallelism\": {cores},\n    \"relax_ms\": {relax_ms:.3}\n  }}\n}}\n",
        ws.len(),
        frontier.len(),
        scale.relax_steps
    );
    std::fs::write("BENCH_interactivity.json", &json).expect("write BENCH_interactivity.json");
    println!("  [json] BENCH_interactivity.json");
}
