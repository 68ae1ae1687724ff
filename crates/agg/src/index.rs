//! Incremental aggregation index: `O(log n)` Equation-1 queries.
//!
//! The naive evaluation of `F_{Γ,Δ}` ([`crate::integrate_group`])
//! rescans the container subtree on every call: it allocates the
//! subtree, probes the trace's signal table for every member and
//! integrates each surviving signal. That cost is paid again for every
//! visible node, for every metric, on every time-slice change — the
//! exact hot path the paper wants at frame rate (§3.2).
//!
//! [`AggIndex`] precomputes, once per session, a **merged prefix
//! integral** per `(metric, container)` pair: the breakpoint-sorted
//! piecewise-constant *group signal* of the whole subtree, with its
//! running antiderivative. After that, any slice integral over any
//! group is two binary searches ([`GroupSeries::integrate`]), and the
//! member count is a subtraction over an Euler-tour interval — no
//! rescan, whatever the slice.
//!
//! Construction is a bottom-up merge over the container tree in
//! deterministic (pre-order, child-id) order, so the floating-point
//! summation order — and therefore every query result — is
//! reproducible run to run.

use viva_obs::{Counter, Recorder};
use viva_trace::{ContainerId, MetricId, SamplePrior, Signal, Trace};

use crate::multiscale::GroupAggregate;
use crate::stats::Summary;
use crate::timeslice::TimeSlice;

/// The merged subtree signal of one `(metric, container)` pair.
///
/// Holds the pointwise sum of every member signal as a single
/// piecewise-constant [`Signal`] (breakpoints merged, running
/// antiderivative maintained), plus the number of member containers
/// that carry the metric.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSeries {
    signal: Signal,
    carriers: usize,
    saturated: u64,
}

impl GroupSeries {
    /// Integral of the group signal over `[a, b]` — `F_{Γ,Δ}` in
    /// `O(log breakpoints)`.
    pub fn integrate(&self, a: f64, b: f64) -> f64 {
        self.signal.integrate(a, b)
    }

    /// Number of containers in the subtree carrying the metric.
    pub fn carriers(&self) -> usize {
        self.carriers
    }

    /// Number of merged breakpoints (diagnostics).
    pub fn len(&self) -> usize {
        self.signal.len()
    }

    /// Whether the merged signal has no breakpoints.
    pub fn is_empty(&self) -> bool {
        self.signal.is_empty()
    }

    /// Breakpoints at which the running sum left the finite range and
    /// was clamped during the merge (see `merge_signals`). 0 for any
    /// realistically-scaled trace; non-zero means the group signal is a
    /// saturated approximation near `±f64::MAX` instead of a panic.
    pub fn saturated(&self) -> u64 {
        self.saturated
    }
}

/// Per-metric slice of the index.
#[derive(Debug, Clone, Default, PartialEq)]
struct MetricIndex {
    /// Euler-tour entry times of the carrier containers, ascending.
    /// Carriers under a group = one binary-searched range.
    carrier_tins: Vec<u32>,
    /// Merged series per container (dense by container index); `None`
    /// when no container in the subtree carries the metric.
    series: Vec<Option<GroupSeries>>,
    /// Prefix sums of the per-container quarantine counters in
    /// pre-order (`len n + 1`), so the quarantined samples under any
    /// group are one Euler-tour subtraction. Empty when the metric has
    /// no quarantined samples anywhere (the common case).
    quarantine_prefix: Vec<u64>,
}

/// A precomputed multilevel aggregation index over one [`Trace`].
///
/// Built once at session creation ([`AggIndex::build`]); immutable
/// afterwards, exactly like the trace it indexes. Every query mirrors
/// the semantics of the naive path in [`crate::multiscale`] — the
/// proptests in this module pin that equivalence down.
#[derive(Debug, Clone)]
pub struct AggIndex {
    /// Euler-tour entry per container index; the subtree of `c` is the
    /// half-open tin interval `[tin[c], tout[c])`.
    tin: Vec<u32>,
    tout: Vec<u32>,
    /// Pre-order container sequence (`order[tin[c] as usize] == c`).
    order: Vec<ContainerId>,
    metrics: Vec<MetricIndex>,
    /// Cached query-metric handles; `None` until an active recorder is
    /// wired via [`set_recorder`](AggIndex::set_recorder).
    obs: Option<Box<AggObs>>,
}

/// Structural equality of the *data* (tour, carrier sets, merged
/// series with their prefix integrals, quarantine sums) — exactly what
/// "incremental insert is bit-identical to a rebuild" quantifies over.
/// Observability handles are wiring, not data, and are ignored.
impl PartialEq for AggIndex {
    fn eq(&self, other: &AggIndex) -> bool {
        self.tin == other.tin
            && self.tout == other.tout
            && self.order == other.order
            && self.metrics == other.metrics
    }
}

/// Pre-resolved handles for the query paths (`agg.index.*`).
#[derive(Debug, Clone)]
struct AggObs {
    /// `agg.index.queries` — slice queries answered (integrate /
    /// try_mean / aggregate).
    queries: Counter,
    /// Times the `agg.index.aggregate` phase: the full §6 per-group
    /// aggregate (the `O(k log n)` query).
    recorder: Recorder,
}

impl AggIndex {
    /// Builds the index over every metric of `trace`.
    pub fn build(trace: &Trace) -> AggIndex {
        let tree = trace.containers();
        let order = tree.subtree(tree.root());
        let n = tree.len();
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        for (i, &c) in order.iter().enumerate() {
            tin[c.index()] = i as u32;
        }
        // Pre-order: a subtree is contiguous, so tout is the max tin in
        // the subtree + 1, computed children-first by reverse walk.
        for &c in order.iter().rev() {
            let mut hi = tin[c.index()] + 1;
            for &ch in tree.node(c).children() {
                hi = hi.max(tout[ch.index()]);
            }
            tout[c.index()] = hi;
        }

        let metrics = (0..trace.metrics().len())
            .map(|mi| Self::build_metric(trace, MetricId::from_index(mi), &order, &tin))
            .collect();
        AggIndex { tin, tout, order, metrics, obs: None }
    }

    /// [`build`](AggIndex::build) with observability: the build is
    /// the `agg.index.build` phase, counted in `agg.index.builds`, and
    /// the returned index reports its queries into `recorder` (see
    /// [`set_recorder`](AggIndex::set_recorder)).
    pub fn build_observed(trace: &Trace, recorder: &Recorder) -> AggIndex {
        let mut idx = {
            let _phase = recorder.phase("agg.index.build");
            AggIndex::build(trace)
        };
        recorder.counter("agg.index.builds").inc();
        idx.set_recorder(recorder.clone());
        idx
    }

    /// Wires an observability recorder into the query paths. An
    /// inactive recorder is discarded entirely, restoring the
    /// uninstrumented fast path.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.obs = recorder.is_active().then(|| {
            // Registered now so `stats` lists it before the first query.
            recorder.histogram("agg.index.aggregate.seconds");
            Box::new(AggObs { queries: recorder.counter("agg.index.queries"), recorder })
        });
    }

    fn build_metric(
        trace: &Trace,
        metric: MetricId,
        order: &[ContainerId],
        tin: &[u32],
    ) -> MetricIndex {
        // Quarantine counters are independent of the signals: an
        // all-NaN series quarantines every sample and leaves no signal
        // at all, yet its counts must still aggregate spatially.
        let mut quarantine_prefix = Vec::new();
        if order.iter().any(|&c| trace.quarantined(c, metric) > 0) {
            quarantine_prefix.reserve(order.len() + 1);
            quarantine_prefix.push(0u64);
            for &c in order {
                let last = *quarantine_prefix.last().expect("seeded with 0");
                quarantine_prefix.push(last + trace.quarantined(c, metric));
            }
        }

        let signals = trace.signals_for_metric(metric);
        if signals.is_empty() {
            return MetricIndex { quarantine_prefix, ..MetricIndex::default() };
        }
        let mut carrier_tins: Vec<u32> = signals.iter().map(|&(c, _)| tin[c.index()]).collect();
        carrier_tins.sort_unstable();

        let tree = trace.containers();
        let mut series: Vec<Option<GroupSeries>> = vec![None; tree.len()];
        // Children precede parents in reverse pre-order.
        for &c in order.iter().rev() {
            let own = trace.signal(c, metric);
            let node = tree.node(c);
            let child_count = node
                .children()
                .iter()
                .filter(|ch| series[ch.index()].is_some())
                .count();
            let entry = match (own, child_count) {
                (None, 0) => None,
                // A carrier leaf (or a carrier whose descendants carry
                // nothing): the group signal *is* the signal, so slice
                // queries match `Signal::integrate` bit for bit.
                (Some(sig), 0) => {
                    Some(GroupSeries { signal: sig.clone(), carriers: 1, saturated: 0 })
                }
                (None, 1) => {
                    let ch = node
                        .children()
                        .iter()
                        .find(|ch| series[ch.index()].is_some())
                        .expect("counted one");
                    series[ch.index()].clone()
                }
                _ => {
                    // Deterministic merge order: own signal first, then
                    // children in declaration order.
                    let mut parts: Vec<&Signal> = Vec::with_capacity(child_count + 1);
                    let mut carriers = 0;
                    let mut saturated = 0;
                    if let Some(sig) = own {
                        parts.push(sig);
                        carriers += 1;
                    }
                    for &ch in node.children() {
                        if let Some(s) = &series[ch.index()] {
                            parts.push(&s.signal);
                            carriers += s.carriers;
                            saturated += s.saturated;
                        }
                    }
                    let (signal, clamped) = merge_signals(&parts);
                    saturated += clamped;
                    Some(GroupSeries { signal, carriers, saturated })
                }
            };
            series[c.index()] = entry;
        }
        MetricIndex { carrier_tins, series, quarantine_prefix }
    }

    fn metric_index(&self, metric: MetricId) -> Option<&MetricIndex> {
        self.metrics.get(metric.index())
    }

    /// Incrementally folds one new sample into the index, **after** the
    /// sample has been applied to `trace` (via
    /// [`viva_trace::Trace::live_push_sample`], whose returned
    /// [`SamplePrior`] is passed through here).
    ///
    /// The result is bit-identical to `AggIndex::build(trace)` — the
    /// proptests below pin that down. The common case (an existing
    /// carrier appending at or after every affected group's last
    /// breakpoint) updates only the `O(depth)` ancestor chain; anything
    /// the fast path cannot reproduce exactly (new carrier, time before
    /// an ancestor's last breakpoint because a sibling is ahead,
    /// saturated series, overflow) falls back to rebuilding that one
    /// metric from the already-updated trace, so the index is *always*
    /// consistent on return.
    ///
    /// Topology and metric registration are append-only in live
    /// sessions and arrive as structural records, which force a full
    /// [`AggIndex::build`] upstream — this method only handles samples
    /// on containers and metrics the index already knows.
    pub fn insert_sample(
        &mut self,
        trace: &Trace,
        container: ContainerId,
        metric: MetricId,
        t: f64,
        v: f64,
        prior: SamplePrior,
    ) {
        let mi = metric.index();
        if mi >= self.metrics.len() || container.index() >= self.tin.len() {
            // A metric or container the index has never seen arrives
            // via a structural record, which rebuilds the whole index
            // upstream; tolerate the call anyway.
            return;
        }
        if !self.try_fast_insert(trace, container, metric, t, v, prior) {
            self.metrics[mi] = Self::build_metric(trace, metric, &self.order, &self.tin);
        }
    }

    /// The `O(depth)` fast path of [`insert_sample`](Self::insert_sample).
    /// Returns `false` when the update cannot be reproduced
    /// bit-identically without a rebuild.
    fn try_fast_insert(
        &mut self,
        trace: &Trace,
        container: ContainerId,
        metric: MetricId,
        t: f64,
        v: f64,
        prior: SamplePrior,
    ) -> bool {
        if !prior.existed || !t.is_finite() || !v.is_finite() {
            return false;
        }
        let midx = &mut self.metrics[metric.index()];
        let tree = trace.containers();
        // Ancestor chain, leaf first — the update order (children
        // before parents, exactly like the build's reverse pre-order).
        let mut path = vec![container];
        let mut cur = container;
        while let Some(p) = tree.node(cur).parent() {
            path.push(p);
            cur = p;
        }
        // Pre-flight: every group on the chain must already have a
        // series (the carrier existed), must be unsaturated (clamped
        // sums don't obey pure delta arithmetic), and must end at or
        // before `t` (a sibling ahead of `t` would force a mid-series
        // merge insert).
        for &g in &path {
            match &midx.series[g.index()] {
                Some(s) if s.saturated == 0 => match s.signal.last_time() {
                    Some(last) if t >= last => {}
                    _ => return false,
                },
                _ => return false,
            }
        }
        // Compute each group's new breakpoint value by replaying the
        // arithmetic its `build_metric` arm would perform, bottom-up so
        // parents read already-updated children.
        for (step, &g) in path.iter().enumerate() {
            let node = tree.node(g);
            let own = trace.signal(g, metric);
            let carrier_children: Vec<ContainerId> = node
                .children()
                .iter()
                .copied()
                .filter(|ch| midx.series[ch.index()].is_some())
                .collect();
            let series_last = |s: &GroupSeries| -> (Option<f64>, f64, f64) {
                let sig = &s.signal;
                let n = sig.len();
                let last_v = sig.values().last().copied().unwrap_or(0.0);
                let prev_v = if n >= 2 { sig.values()[n - 2] } else { 0.0 };
                (sig.last_time(), last_v, prev_v)
            };
            let val = match (own, carrier_children.len()) {
                // Leaf arm: the group series mirrors the raw signal
                // (which the trace push already updated) — copy its new
                // last value rather than re-deriving it through delta
                // arithmetic, which wouldn't be bit-identical.
                (Some(sig), 0) => {
                    debug_assert_eq!(g, container);
                    sig.values().last().copied().unwrap_or(v)
                }
                // Clone arm: mirrors the single carrier child, which
                // the previous iteration already updated.
                (None, 1) => {
                    let ch = carrier_children[0];
                    debug_assert_eq!(ch, path[step - 1]);
                    match &midx.series[ch.index()] {
                        Some(s) => s.signal.values().last().copied().unwrap_or(v),
                        None => return false,
                    }
                }
                // Merge arm: the series is a delta sweep over parts
                // (own signal first, carrier children in declaration
                // order) — replay exactly the sweep's float ops for the
                // breakpoints at `t`.
                _ => {
                    let s = midx.series[g.index()].as_ref().expect("pre-flight checked");
                    let (s_last_t, s_last_v, s_prev_v) = series_last(s);
                    let tied = s_last_t == Some(t);
                    // Parts in build order, as (last_time, last, prev).
                    let mut parts: Vec<(Option<f64>, f64, f64)> = Vec::new();
                    if let Some(sig) = own {
                        let n = sig.len();
                        parts.push((
                            sig.last_time(),
                            sig.values().last().copied().unwrap_or(0.0),
                            if n >= 2 { sig.values()[n - 2] } else { 0.0 },
                        ));
                    }
                    for &ch in node.children() {
                        if let Some(cs) = &midx.series[ch.index()] {
                            parts.push(series_last(cs));
                        }
                    }
                    let mut acc = if tied {
                        // Re-collapse every part breakpoint at `t` onto
                        // the value just before `t`, in part order —
                        // the sweep's stable-sort order.
                        s_prev_v
                    } else {
                        s_last_v
                    };
                    let mut contributed = false;
                    for (p_last_t, p_last, p_prev) in parts {
                        if p_last_t == Some(t) {
                            acc += p_last - p_prev;
                            contributed = true;
                            if !acc.is_finite() {
                                // The rebuild sweep would clamp here —
                                // different arithmetic from this point
                                // on, so replay it for real.
                                return false;
                            }
                        }
                    }
                    if !contributed {
                        // The updated part always ends at `t` by now,
                        // so this is unreachable — but if the invariant
                        // ever breaks, a rebuild is correct and a
                        // silent push is not.
                        return false;
                    }
                    acc
                }
            };
            let s = midx.series[g.index()].as_mut().expect("pre-flight checked");
            s.signal.push(t, val).expect("t >= last and finite by pre-flight");
        }
        true
    }

    /// Folds a newly-quarantined sample (a non-finite value on a valid
    /// carrier pair) into the index: only the metric's quarantine
    /// prefix sums change, rebuilt in `O(n)` from the already-updated
    /// trace — bit-identical to a full rebuild's.
    pub fn note_quarantine(&mut self, trace: &Trace, metric: MetricId) {
        let mi = metric.index();
        if mi >= self.metrics.len() {
            return;
        }
        let mut quarantine_prefix = Vec::new();
        if self.order.iter().any(|&c| trace.quarantined(c, metric) > 0) {
            quarantine_prefix.reserve(self.order.len() + 1);
            quarantine_prefix.push(0u64);
            for &c in &self.order {
                let last = *quarantine_prefix.last().expect("seeded with 0");
                quarantine_prefix.push(last + trace.quarantined(c, metric));
            }
        }
        self.metrics[mi].quarantine_prefix = quarantine_prefix;
    }

    /// The merged series of `(metric, group)`, `None` when no container
    /// under `group` carries the metric.
    ///
    /// # Panics
    ///
    /// Panics when `group` is not part of the indexed trace.
    pub fn series(&self, metric: MetricId, group: ContainerId) -> Option<&GroupSeries> {
        self.metric_index(metric)?.series.get(group.index())?.as_ref()
    }

    /// `F_{Γ,Δ}` over `subtree(group) × slice` in `O(log n)` —
    /// the indexed twin of [`crate::integrate_group`].
    ///
    /// # Panics
    ///
    /// Panics when `group` is not part of the indexed trace.
    pub fn integrate(&self, metric: MetricId, group: ContainerId, slice: TimeSlice) -> f64 {
        if let Some(obs) = &self.obs {
            obs.queries.inc();
        }
        self.series(metric, group)
            .map_or(0.0, |s| s.integrate(slice.start(), slice.end()))
    }

    /// Number of containers under `group` (inclusive) carrying
    /// `metric`, in `O(log n)`.
    ///
    /// # Panics
    ///
    /// Panics when `group` is not part of the indexed trace.
    pub fn carrier_count(&self, metric: MetricId, group: ContainerId) -> usize {
        let Some(mi) = self.metric_index(metric) else { return 0 };
        let (lo, hi) = (self.tin[group.index()], self.tout[group.index()]);
        mi.carrier_tins.partition_point(|&t| t < hi)
            - mi.carrier_tins.partition_point(|&t| t < lo)
    }

    /// The carrier containers under `group`, in pre-order — the same
    /// enumeration order as the naive subtree scan, without walking
    /// non-carriers.
    ///
    /// # Panics
    ///
    /// Panics when `group` is not part of the indexed trace.
    pub fn carriers_under(
        &self,
        metric: MetricId,
        group: ContainerId,
    ) -> impl Iterator<Item = ContainerId> + '_ {
        let range = match self.metric_index(metric) {
            Some(mi) => {
                let (lo, hi) = (self.tin[group.index()], self.tout[group.index()]);
                let a = mi.carrier_tins.partition_point(|&t| t < lo);
                let b = mi.carrier_tins.partition_point(|&t| t < hi);
                &mi.carrier_tins[a..b]
            }
            None => &[][..],
        };
        range.iter().map(|&t| self.order[t as usize])
    }

    /// Non-finite samples of `metric` quarantined at ingestion across
    /// the subtree of `group`, in `O(1)` — the indexed twin of
    /// [`viva_trace::Trace::quarantined_under`]. 0 for cleanly-loaded
    /// traces.
    ///
    /// # Panics
    ///
    /// Panics when `group` is not part of the indexed trace.
    pub fn quarantined_under(&self, metric: MetricId, group: ContainerId) -> u64 {
        let Some(mi) = self.metric_index(metric) else { return 0 };
        if mi.quarantine_prefix.is_empty() {
            return 0;
        }
        let (lo, hi) = (self.tin[group.index()], self.tout[group.index()]);
        mi.quarantine_prefix[hi as usize] - mi.quarantine_prefix[lo as usize]
    }

    /// Quarantined samples summed over *all* metrics under `group` —
    /// what a view badge wants.
    ///
    /// # Panics
    ///
    /// Panics when `group` is not part of the indexed trace.
    pub fn quarantined_under_all(&self, group: ContainerId) -> u64 {
        (0..self.metrics.len())
            .map(|mi| self.quarantined_under(MetricId::from_index(mi), group))
            .sum()
    }

    /// Total clamped breakpoints across every merged series of `metric`
    /// (see [`GroupSeries::saturated`]); 0 outside adversarial inputs.
    pub fn saturated_total(&self, metric: MetricId) -> u64 {
        let Some(mi) = self.metric_index(metric) else { return 0 };
        // The root series accumulates every child's counter.
        mi.series
            .first()
            .and_then(|s| s.as_ref())
            .map_or(0, GroupSeries::saturated)
    }

    /// The indexed twin of [`crate::try_mean_over_group`]: space-time
    /// mean in `O(log n)`, `None` when the slice is empty or nothing
    /// under `group` carries the metric.
    ///
    /// # Panics
    ///
    /// Panics when `group` is not part of the indexed trace.
    pub fn try_mean(&self, metric: MetricId, group: ContainerId, slice: TimeSlice) -> Option<f64> {
        if let Some(obs) = &self.obs {
            obs.queries.inc();
        }
        let series = self.series(metric, group)?;
        if slice.width() <= 0.0 {
            return None;
        }
        Some(series.integrate(slice.start(), slice.end()) / (series.carriers as f64 * slice.width()))
    }

    /// The indexed twin of [`GroupAggregate::compute`]: full per-group
    /// aggregate with the §6 statistical indicators.
    ///
    /// The summary needs one value per member, so this is `O(k log n)`
    /// for `k` carriers — but it skips the subtree walk, and the
    /// per-member integrals are read from the members' own prefix sums,
    /// bit-identical to the naive path.
    ///
    /// # Panics
    ///
    /// Panics when `group` is not part of the indexed trace.
    pub fn aggregate(
        &self,
        trace: &Trace,
        metric: MetricId,
        group: ContainerId,
        slice: TimeSlice,
    ) -> GroupAggregate {
        let _phase = self.obs.as_ref().map(|obs| {
            obs.queries.inc();
            obs.recorder.phase("agg.index.aggregate")
        });
        let width = slice.width();
        let mut integral = 0.0;
        let mut members = 0usize;
        let means = self
            .carriers_under(metric, group)
            .filter_map(|c| trace.signal(c, metric))
            .map(|s| {
                let v = s.integrate(slice.start(), slice.end());
                integral += v;
                members += 1;
                if width > 0.0 {
                    v / width
                } else {
                    0.0
                }
            })
            .collect::<Vec<f64>>();
        GroupAggregate {
            group,
            members,
            integral,
            summary: Summary::of(means),
            quarantined: self.quarantined_under(metric, group),
        }
    }
}

/// Merges piecewise-constant signals into their pointwise sum in
/// `O(total breakpoints × log)`, keeping the running prefix integral.
///
/// Equal-time breakpoints across parts collapse into one. The merge is
/// a stable sweep over `(time, value-delta)` events, so summation order
/// is fixed by the caller's part order — deterministic results.
///
/// Individual signals are finite by construction ([`Signal::push`]
/// rejects NaN/∞), but the *sum* of many finite signals can still
/// overflow `f64`. `Signal::push` would reject the infinite sample and
/// this merge would panic deep inside session construction — on
/// adversarial input, not a programming error. Instead the running sum
/// saturates at `±f64::MAX`; the second return value counts the clamped
/// breakpoints so callers can surface the degradation.
fn merge_signals(parts: &[&Signal]) -> (Signal, u64) {
    let total: usize = parts.iter().map(|s| s.len()).sum();
    let mut events: Vec<(f64, f64)> = Vec::with_capacity(total);
    for part in parts {
        let (times, values) = (part.times(), part.values());
        let mut prev = 0.0;
        for (&t, &v) in times.iter().zip(values) {
            events.push((t, v - prev));
            prev = v;
        }
    }
    // Stable: equal times keep part order, fixing float summation.
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out = Signal::new();
    let mut running = 0.0;
    let mut clamped = 0u64;
    for (t, delta) in events {
        running += delta;
        if !running.is_finite() {
            running = if running > 0.0 { f64::MAX } else { -f64::MAX };
            clamped += 1;
        }
        // Push at an existing last time overwrites — exactly the
        // collapse of simultaneous breakpoints we want.
        out.push(t, running).expect("sorted finite times are monotonic");
    }
    (out, clamped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiscale::{integrate_group, try_mean_over_group};
    use viva_trace::{ContainerKind, TraceBuilder};

    /// root → {c1: h0 h1, c2: h2 h3}, power on all hosts, bandwidth on
    /// a root-level link, plus a metric with no signals at all.
    fn trace() -> Trace {
        let mut b = TraceBuilder::new();
        let m = b.metric("power_used", "MFlop/s");
        let bw = b.metric("bandwidth", "Mbit/s");
        let _unused = b.metric("ghost", "u");
        let mut hosts = Vec::new();
        for cn in ["c1", "c2"] {
            let cl = b.new_container(b.root(), cn, ContainerKind::Cluster).unwrap();
            for i in 0..2 {
                let h = b
                    .new_container(cl, format!("{cn}-h{i}"), ContainerKind::Host)
                    .unwrap();
                hosts.push(h);
            }
        }
        for (i, &h) in hosts.iter().enumerate() {
            b.set_variable(0.0, h, m, 10.0 * (i + 1) as f64).unwrap();
            b.set_variable(2.0 + i as f64, h, m, 5.0).unwrap();
        }
        let l = b.new_container(b.root(), "bb", ContainerKind::Link).unwrap();
        b.set_variable(0.0, l, bw, 1000.0).unwrap();
        b.finish(10.0)
    }

    #[test]
    fn indexed_integral_matches_naive() {
        let t = trace();
        let idx = AggIndex::build(&t);
        let m = t.metric_id("power_used").unwrap();
        let root = t.containers().root();
        for slice in [
            TimeSlice::new(0.0, 10.0),
            TimeSlice::new(1.5, 3.5),
            TimeSlice::new(4.0, 4.0),
            TimeSlice::new(9.0, 10.0),
        ] {
            for c in t.containers().iter() {
                let naive = integrate_group(&t, m, c.id(), slice);
                let fast = idx.integrate(m, c.id(), slice);
                assert!(
                    (naive - fast).abs() <= 1e-9 * naive.abs().max(1.0),
                    "{:?} over {slice}: naive {naive} vs indexed {fast}",
                    c.id()
                );
            }
        }
        assert_eq!(idx.carrier_count(m, root), 4);
        let c1 = t.containers().by_name("c1").unwrap().id();
        assert_eq!(idx.carrier_count(m, c1), 2);
    }

    #[test]
    fn leaf_series_is_bit_identical_to_signal() {
        let t = trace();
        let idx = AggIndex::build(&t);
        let m = t.metric_id("power_used").unwrap();
        let h = t.containers().by_name("c1-h0").unwrap().id();
        let sig = t.signal(h, m).unwrap();
        for (a, b) in [(0.0, 10.0), (1.3, 7.7), (2.0, 2.0)] {
            assert_eq!(idx.integrate(m, h, TimeSlice::new(a, b)), sig.integrate(a, b));
        }
    }

    #[test]
    fn observed_build_and_queries_are_tallied_without_changing_results() {
        let t = trace();
        let r = Recorder::enabled();
        let plain = AggIndex::build(&t);
        let observed = AggIndex::build_observed(&t, &r);
        assert_eq!(r.counter("agg.index.builds").get(), 1);
        assert_eq!(r.histogram("agg.index.build.seconds").count(), 1);

        let m = t.metric_id("power_used").unwrap();
        let root = t.containers().root();
        let slice = TimeSlice::new(1.0, 9.0);
        assert_eq!(observed.integrate(m, root, slice), plain.integrate(m, root, slice));
        assert_eq!(observed.try_mean(m, root, slice), plain.try_mean(m, root, slice));
        assert_eq!(
            observed.aggregate(&t, m, root, slice),
            plain.aggregate(&t, m, root, slice)
        );
        assert_eq!(r.counter("agg.index.queries").get(), 3);
        assert_eq!(r.histogram("agg.index.aggregate.seconds").count(), 1);

        // A disabled recorder restores the uninstrumented path.
        let mut quiet = plain.clone();
        quiet.set_recorder(Recorder::disabled());
        quiet.integrate(m, root, slice);
        assert_eq!(r.counter("agg.index.queries").get(), 3);
    }

    #[test]
    fn metric_without_signals_is_empty_everywhere() {
        let t = trace();
        let idx = AggIndex::build(&t);
        let ghost = t.metric_id("ghost").unwrap();
        let root = t.containers().root();
        assert_eq!(idx.integrate(ghost, root, TimeSlice::new(0.0, 10.0)), 0.0);
        assert_eq!(idx.carrier_count(ghost, root), 0);
        assert_eq!(idx.try_mean(ghost, root, TimeSlice::new(0.0, 10.0)), None);
        assert!(idx.series(ghost, root).is_none());
        let agg = idx.aggregate(&t, ghost, root, TimeSlice::new(0.0, 10.0));
        assert!(agg.is_empty());
        assert_eq!(agg, GroupAggregate::compute(&t, ghost, root, TimeSlice::new(0.0, 10.0)));
    }

    #[test]
    fn unregistered_metric_id_is_harmless() {
        let t = trace();
        let idx = AggIndex::build(&t);
        let bogus = MetricId::from_index(99);
        let root = t.containers().root();
        assert_eq!(idx.integrate(bogus, root, TimeSlice::new(0.0, 10.0)), 0.0);
        assert_eq!(idx.carrier_count(bogus, root), 0);
        assert_eq!(idx.carriers_under(bogus, root).count(), 0);
    }

    #[test]
    fn try_mean_matches_naive_semantics() {
        let t = trace();
        let idx = AggIndex::build(&t);
        let m = t.metric_id("power_used").unwrap();
        let c1 = t.containers().by_name("c1").unwrap().id();
        for slice in [TimeSlice::new(0.0, 10.0), TimeSlice::new(3.0, 3.0), TimeSlice::new(8.0, 9.5)] {
            let naive = try_mean_over_group(&t, m, c1, slice);
            let fast = idx.try_mean(m, c1, slice);
            match (naive, fast) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}")
                }
                other => panic!("presence mismatch over {slice}: {other:?}"),
            }
        }
    }

    #[test]
    fn aggregate_matches_naive_bit_for_bit() {
        let t = trace();
        let idx = AggIndex::build(&t);
        let m = t.metric_id("power_used").unwrap();
        for c in t.containers().iter() {
            for slice in [TimeSlice::new(0.0, 10.0), TimeSlice::new(1.0, 6.0)] {
                let naive = GroupAggregate::compute(&t, m, c.id(), slice);
                let fast = idx.aggregate(&t, m, c.id(), slice);
                // Same enumeration order, same per-member arithmetic:
                // full equality, not tolerance.
                assert_eq!(naive, fast, "at {:?} over {slice}", c.id());
            }
        }
    }

    #[test]
    fn carriers_under_enumerates_preorder() {
        let t = trace();
        let idx = AggIndex::build(&t);
        let m = t.metric_id("power_used").unwrap();
        let root = t.containers().root();
        let naive: Vec<ContainerId> = t
            .containers()
            .subtree(root)
            .into_iter()
            .filter(|&c| t.signal(c, m).is_some())
            .collect();
        let fast: Vec<ContainerId> = idx.carriers_under(m, root).collect();
        assert_eq!(naive, fast);
    }

    #[test]
    fn merge_collapses_simultaneous_breakpoints() {
        let mut a = Signal::new();
        a.push(0.0, 1.0).unwrap();
        a.push(5.0, 3.0).unwrap();
        let mut b = Signal::new();
        b.push(5.0, 2.0).unwrap();
        let (s, clamped) = merge_signals(&[&a, &b]);
        assert_eq!(clamped, 0);
        assert_eq!(s.len(), 2, "t=5 appears once");
        assert_eq!(s.value_at(1.0), 1.0);
        assert_eq!(s.value_at(6.0), 5.0);
        assert_eq!(s.integrate(0.0, 10.0), a.integrate(0.0, 10.0) + b.integrate(0.0, 10.0));
    }

    #[test]
    fn merge_saturates_instead_of_panicking() {
        let mut a = Signal::new();
        a.push(0.0, f64::MAX).unwrap();
        let mut b = Signal::new();
        b.push(0.0, f64::MAX).unwrap();
        let (s, clamped) = merge_signals(&[&a, &b]);
        assert_eq!(clamped, 1);
        assert_eq!(s.value_at(1.0), f64::MAX, "sum clamped, not infinite");
    }

    #[test]
    fn index_build_survives_overflowing_sums() {
        let mut b = TraceBuilder::new();
        let cl = b.new_container(b.root(), "c", ContainerKind::Cluster).unwrap();
        let m = b.metric("x", "u");
        for i in 0..3 {
            let h = b.new_container(cl, format!("h{i}"), ContainerKind::Host).unwrap();
            // Each signal is finite and legal on its own; only the
            // subtree sum overflows.
            b.set_variable(0.0, h, m, f64::MAX).unwrap();
        }
        let t = b.finish(1.0);
        let idx = AggIndex::build(&t);
        let root = t.containers().root();
        assert!(idx.saturated_total(m) > 0, "clamp was recorded");
        let s = idx.series(m, root).expect("series exists");
        assert_eq!(s.carriers(), 3);
        assert!(s.saturated() > 0);
    }

    #[test]
    fn quarantine_counters_aggregate_spatially() {
        // Lenient-load a trace whose NaN samples quarantine on two
        // hosts of the same cluster; counts roll up the tree.
        use viva_trace::TraceLoader;
        let text = "span,0.0,10.0\n\
                    container,1,0,cluster,c1\n\
                    container,2,1,host,h0\n\
                    container,3,1,host,h1\n\
                    container,4,0,host,lone\n\
                    metric,0,MFlop/s,power_used\n\
                    var,0.0,2,0,1.0\n\
                    var,1.0,2,0,NaN\n\
                    var,0.0,3,0,NaN\n\
                    var,2.0,3,0,NaN\n\
                    var,0.0,4,0,5.0\n";
        let r = TraceLoader::new().lenient().load_str(text).unwrap();
        assert_eq!(r.quarantined, 3);
        let t = &r.trace;
        let idx = AggIndex::build(t);
        let m = t.metric_id("power_used").unwrap();
        let root = t.containers().root();
        let c1 = t.containers().by_name("c1").unwrap().id();
        let h1 = t.containers().by_name("h1").unwrap().id();
        for g in [root, c1, h1] {
            assert_eq!(idx.quarantined_under(m, g), t.quarantined_under(g, m), "at {g}");
        }
        assert_eq!(idx.quarantined_under(m, root), 3);
        assert_eq!(idx.quarantined_under(m, c1), 3);
        assert_eq!(idx.quarantined_under(m, h1), 2, "all-NaN series still counts");
        assert_eq!(idx.quarantined_under_all(root), 3);
        // h1 is all-NaN: no signal, no carrier — but the aggregate
        // still reports the quarantine so views can badge it.
        assert!(t.signal(h1, m).is_none());
        let agg = idx.aggregate(t, m, h1, TimeSlice::new(0.0, 10.0));
        assert!(agg.is_empty());
        assert_eq!(agg.quarantined, 2);
        assert_eq!(agg, GroupAggregate::compute(t, m, h1, TimeSlice::new(0.0, 10.0)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::multiscale::{integrate_group, try_mean_over_group, GroupAggregate};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use viva_trace::{ContainerKind, TraceBuilder};

    /// A random 3-level trace: 1–3 clusters × 1–3 hosts, each host with
    /// a random piecewise-constant `power_used` signal; roughly one
    /// host in five is silent (no signal) to exercise carrier
    /// filtering.
    fn random_trace() -> impl Strategy<Value = Trace> {
        proptest::collection::vec(
            proptest::collection::vec(
                (0usize..5, proptest::collection::vec((0.0f64..100.0, 0.0f64..500.0), 1..10)),
                1..4,
            ),
            1..4,
        )
        .prop_map(|clusters| {
            let mut b = TraceBuilder::new();
            let m = b.metric("power_used", "MFlop/s");
            for (ci, hosts) in clusters.into_iter().enumerate() {
                let cl = b
                    .new_container(b.root(), format!("c{ci}"), ContainerKind::Cluster)
                    .unwrap();
                for (hi, (silent_die, mut points)) in hosts.into_iter().enumerate() {
                    let h = b
                        .new_container(cl, format!("c{ci}-h{hi}"), ContainerKind::Host)
                        .unwrap();
                    if silent_die == 0 {
                        continue; // silent host: no signal at all
                    }
                    points.sort_by(|a, b| a.0.total_cmp(&b.0));
                    for (t, v) in points {
                        b.set_variable(t, h, m, v).unwrap();
                    }
                }
            }
            b.finish(100.0)
        })
    }

    /// The `O(depth)` fast path itself (not its rebuild fallback) must
    /// carry the common streaming cases: append, equal-time collapse,
    /// and sibling-tie refold — asserted by calling it directly.
    #[test]
    fn fast_insert_handles_append_tie_and_sibling_tie() {
        use viva_trace::{ContainerKind, TraceBuilder};
        let mut b = TraceBuilder::new();
        let m = b.metric("power_used", "MFlop/s");
        let c1 = b.new_container(b.root(), "c1", ContainerKind::Cluster).unwrap();
        let h0 = b.new_container(c1, "c1-h0", ContainerKind::Host).unwrap();
        let h1 = b.new_container(c1, "c1-h1", ContainerKind::Host).unwrap();
        let c2 = b.new_container(b.root(), "c2", ContainerKind::Cluster).unwrap();
        let h2 = b.new_container(c2, "c2-h0", ContainerKind::Host).unwrap();
        for (i, &h) in [h0, h1, h2].iter().enumerate() {
            b.set_variable(0.0, h, m, 10.0 * (i + 1) as f64).unwrap();
            b.set_variable(2.0 + i as f64, h, m, 5.0).unwrap();
        }
        let mut trace = b.finish(10.0);
        let mut idx = AggIndex::build(&trace);
        // Pure append past every last breakpoint.
        let prior = trace.live_push_sample(h0, m, 20.0, 42.0).unwrap();
        assert!(idx.try_fast_insert(&trace, h0, m, 20.0, 42.0, prior));
        assert!(idx == AggIndex::build(&trace), "append diverged");
        // Sibling tie: h1 lands at h0's new last time — the parent
        // series collapses the equal-time breakpoints via refold.
        let prior = trace.live_push_sample(h1, m, 20.0, 7.0).unwrap();
        assert!(idx.try_fast_insert(&trace, h1, m, 20.0, 7.0, prior));
        assert!(idx == AggIndex::build(&trace), "sibling tie diverged");
        // Same-signal tie: overwrite h0's breakpoint at 20.0.
        let prior = trace.live_push_sample(h0, m, 20.0, 1.5).unwrap();
        assert!(prior.tied);
        assert!(idx.try_fast_insert(&trace, h0, m, 20.0, 1.5, prior));
        assert!(idx == AggIndex::build(&trace), "tie overwrite diverged");
        // Cross-sibling out-of-order: 15.0 is past h2's own clock but
        // precedes the *root's* last breakpoint (20.0 from c1) — the
        // fast path must refuse and the fallback rebuild take over.
        let prior = trace.live_push_sample(h2, m, 15.0, 3.0).unwrap();
        assert!(!idx.try_fast_insert(&trace, h2, m, 15.0, 3.0, prior));
        idx.insert_sample(&trace, h2, m, 15.0, 3.0, prior);
        assert!(idx == AggIndex::build(&trace), "rebuild fallback diverged");
    }

    proptest! {
        /// The tentpole invariant: the incremental index agrees with
        /// the naive full-rescan aggregation on random traces and
        /// random slices, for every container of the tree.
        #[test]
        fn index_agrees_with_naive_rescan(trace in random_trace(),
                                          a in 0.0f64..100.0, w in 0.0f64..100.0) {
            let idx = AggIndex::build(&trace);
            let m = trace.metric_id("power_used").unwrap();
            let slice = TimeSlice::new(a, (a + w).min(100.0));
            for c in trace.containers().iter() {
                let naive = integrate_group(&trace, m, c.id(), slice);
                let fast = idx.integrate(m, c.id(), slice);
                prop_assert!((naive - fast).abs() <= 1e-6 * naive.abs().max(1.0),
                             "{:?}: naive {naive} vs indexed {fast}", c.id());
                let naive_agg = GroupAggregate::compute(&trace, m, c.id(), slice);
                let fast_agg = idx.aggregate(&trace, m, c.id(), slice);
                prop_assert_eq!(&naive_agg, &fast_agg, "aggregate mismatch at {:?}", c.id());
                match (try_mean_over_group(&trace, m, c.id(), slice), idx.try_mean(m, c.id(), slice)) {
                    (None, None) => {}
                    (Some(x), Some(y)) =>
                        prop_assert!((x - y).abs() <= 1e-6 * x.abs().max(1.0), "{x} vs {y}"),
                    other => return Err(TestCaseError::fail(format!("presence mismatch {other:?}"))),
                }
            }
        }

        /// Degenerate ingestion inputs — out-of-order events, duplicate
        /// timestamps, NaN samples up to whole all-NaN series — go
        /// through a lenient load without panicking, and the index
        /// agrees with the naive rescan on the surviving trace,
        /// including over zero-width slices and for the quarantine
        /// counters.
        #[test]
        fn index_handles_degenerate_ingest(
            events in proptest::collection::vec(
                // (host 0..3, discrete time → duplicates, NaN die)
                (0usize..3, 0u32..6, 0usize..4, 0.0f64..100.0),
                0..40,
            ),
            a in 0.0f64..10.0,
        ) {
            use std::fmt::Write as _;
            use viva_trace::TraceLoader;
            let mut csv = String::from(
                "span,0.0,10.0\n\
                 container,1,0,cluster,c\n\
                 container,2,1,host,h0\n\
                 container,3,1,host,h1\n\
                 container,4,1,host,h2\n\
                 metric,0,MFlop/s,power_used\n",
            );
            for (h, t, nan_die, v) in events {
                // Events arrive in arbitrary order: the lenient loader
                // must drop the non-monotonic ones, never panic.
                if nan_die == 0 {
                    let _ = writeln!(csv, "var,{}.0,{},0,NaN", t, h + 2);
                } else {
                    let _ = writeln!(csv, "var,{}.0,{},0,{v:?}", t, h + 2);
                }
            }
            let r = TraceLoader::new().lenient().load_str(&csv).unwrap();
            prop_assert!(r.breach.is_none());
            prop_assert_eq!(r.quarantined as u64, r.trace.quarantined_total());
            let trace = &r.trace;
            let idx = AggIndex::build(trace);
            let m = trace.metric_id("power_used").unwrap();
            // Zero-width slice first, then a normal one.
            for slice in [TimeSlice::new(a, a), TimeSlice::new(a, 10.0)] {
                for c in trace.containers().iter() {
                    let naive = integrate_group(trace, m, c.id(), slice);
                    let fast = idx.integrate(m, c.id(), slice);
                    prop_assert!((naive - fast).abs() <= 1e-6 * naive.abs().max(1.0),
                                 "{:?}: naive {naive} vs indexed {fast}", c.id());
                    // Per-member arithmetic is identical on both paths:
                    // full equality, quarantine counter included.
                    prop_assert_eq!(
                        GroupAggregate::compute(trace, m, c.id(), slice),
                        idx.aggregate(trace, m, c.id(), slice)
                    );
                    prop_assert_eq!(
                        idx.quarantined_under(m, c.id()),
                        trace.quarantined_under(c.id(), m)
                    );
                    prop_assert_eq!(
                        idx.quarantined_under_all(c.id()),
                        trace
                            .metrics()
                            .iter()
                            .map(|mm| trace.quarantined_under(c.id(), mm.id()))
                            .sum::<u64>()
                    );
                    match (try_mean_over_group(trace, m, c.id(), slice), idx.try_mean(m, c.id(), slice)) {
                        (None, None) => {}
                        (Some(x), Some(y)) =>
                            prop_assert!((x - y).abs() <= 1e-6 * x.abs().max(1.0), "{x} vs {y}"),
                        other => return Err(TestCaseError::fail(format!("presence mismatch {other:?}"))),
                    }
                }
            }
        }

        /// The streaming invariant: folding samples in one at a time
        /// with [`AggIndex::insert_sample`] / [`AggIndex::note_quarantine`]
        /// yields an index **bit-identical** (structural `PartialEq`,
        /// prefix integrals and quarantine sums included) to
        /// `AggIndex::build` of the same trace — after *every* event,
        /// across new carriers, equal-time collapses, cross-sibling
        /// out-of-order arrivals (fast-path bail), samples on inner
        /// containers, NaN quarantines, and saturating `1e308` sums.
        #[test]
        fn incremental_insert_is_bit_identical_to_rebuild(
            ops in proptest::collection::vec(
                // (container selector, metric selector, value kind,
                //  time advance selector, value)
                (0usize..16, 0usize..2, 0usize..8, 0usize..4, -500.0f64..500.0),
                0..40,
            ),
        ) {
            use viva_trace::{ContainerKind, TraceBuilder};
            // root → {c0: h0 h1, c1: h2}, plus a host directly under
            // root: exercises leaf, clone, and merge arms.
            let mut b = TraceBuilder::new();
            let m0 = b.metric("power_used", "MFlop/s");
            let m1 = b.metric("bandwidth", "Mbit/s");
            let c0 = b.new_container(b.root(), "c0", ContainerKind::Cluster).unwrap();
            let h0 = b.new_container(c0, "h0", ContainerKind::Host).unwrap();
            let h1 = b.new_container(c0, "h1", ContainerKind::Host).unwrap();
            let c1 = b.new_container(b.root(), "c1", ContainerKind::Cluster).unwrap();
            let h2 = b.new_container(c1, "h2", ContainerKind::Host).unwrap();
            let h3 = b.new_container(b.root(), "h3", ContainerKind::Host).unwrap();
            // Seed one carrier so existing-carrier fast paths fire from
            // the first op; everything else starts silent.
            b.set_variable(0.0, h0, m0, 10.0).unwrap();
            let mut trace = b.finish(0.0);
            let mut idx = AggIndex::build(&trace);
            let containers = [c0, h0, h1, c1, h2, h3, trace.containers().root()];
            for (ci, mi, kind, dt_sel, v) in ops {
                let c = containers[ci % containers.len()];
                let m = if mi == 0 { m0 } else { m1 };
                if kind == 6 {
                    // Non-finite sample on a valid pair: quarantine.
                    trace.live_note_quarantined(c, m);
                    idx.note_quarantine(&trace, m);
                } else {
                    // Discrete time advances force equal-time collapses
                    // both within a signal (dt = 0) and across siblings
                    // (shared grid); per-pair clocks stay monotonic
                    // while the *merged* ancestors see out-of-order
                    // arrivals whenever a sibling is ahead.
                    let dt = [0.0, 1.0, 1.0, 2.5][dt_sel];
                    let t = trace.signal(c, m)
                        .and_then(|s| s.last_time())
                        .unwrap_or(0.0) + dt;
                    let v = if kind == 7 { 1.0e308 } else { v };
                    let prior = trace.live_push_sample(c, m, t, v).unwrap();
                    idx.insert_sample(&trace, c, m, t, v, prior);
                }
                let rebuilt = AggIndex::build(&trace);
                prop_assert!(idx == rebuilt,
                             "incremental index diverged from rebuild after \
                              ({c:?}, {m:?}, kind {kind})");
            }
        }

        /// Carrier counts equal the naive subtree scan everywhere.
        #[test]
        fn carrier_count_matches_subtree_scan(trace in random_trace()) {
            let idx = AggIndex::build(&trace);
            let m = trace.metric_id("power_used").unwrap();
            for c in trace.containers().iter() {
                let naive = trace.containers().subtree(c.id()).into_iter()
                    .filter(|&x| trace.signal(x, m).is_some()).count();
                prop_assert_eq!(naive, idx.carrier_count(m, c.id()));
            }
        }
    }
}
