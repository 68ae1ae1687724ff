//! # viva-obs — self-observation for the viva pipeline
//!
//! The paper's pitch is *interactive* analysis: slice changes, collapse /
//! expand, and force-slider drags must feel instant. You cannot hold a
//! pipeline to that bar without measuring it, so this crate gives every
//! layer of viva — ingest, aggregation, layout, serving — a shared,
//! dependency-free observability substrate:
//!
//! * a **registry of metrics**: monotonic [`Counter`]s, last-value
//!   [`Gauge`]s, and fixed log-linear [`Histogram`]s (four sub-buckets
//!   per power-of-two octave, see [`bucket_index`]);
//! * **phases** ([`Recorder::phase`]): the one timing primitive. A
//!   phase reads the clock once when it opens and once when it drops,
//!   and feeds both the `<name>.seconds` histogram and, inside a
//!   sampled trace, a span;
//! * **causal span traces** ([`Tracer`], the [`span`] module): per-shard
//!   rings of parent-linked spans with seeded head-sampling, for
//!   answering "where did this one slow command spend its time?";
//! * a **bounded ring-buffer event log** with logical-clock sequence
//!   numbers ([`Recorder::event`]) for rare, discrete transitions
//!   (layout freezes, budget breaches);
//! * a deterministic [`Snapshot`] of everything above, and a
//!   Prometheus-style text exposition ([`snapshot_to_text`]).
//!
//! ## Zero cost when disabled
//!
//! The unit of wiring is the [`Recorder`]. Its default state is
//! **disabled**: a `None` inner, so every handle created from it is a
//! no-op — no allocation, no atomics — and a phase costs that one
//! `Option` test and never reads the clock. Instrumented code holds
//! handles unconditionally and never branches on "is observability
//! on?"; the handles do.
//!
//! ## Determinism contract
//!
//! viva's serving layer promises byte-identical transcripts for
//! identical command scripts, and turning metrics on must not bend that
//! promise. The contract, relied on by the `stats` protocol command:
//!
//! * **Deterministic**: counter values, gauge values (they hold model
//!   quantities like kinetic energy, never wall time), histogram
//!   *sample counts*, and event sequence numbers / names.
//! * **Wall-clock (non-deterministic)**: histogram bucket occupancy and
//!   sums for `*.seconds` phase histograms. These are only exported via
//!   the text exposition, never over the wire protocol.
//!
//! Cross-thread updates use relaxed atomic integer addition, which is
//! order-independent — parallel layout passes stay byte-deterministic
//! with metrics enabled.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

mod snapshot;
pub mod span;
pub use snapshot::{snapshot_to_text, EventRecord, HistogramSnapshot, Snapshot};
pub use span::{sample_one_in, SpanGuard, SpanId, SpanRecord, Tracer, SPAN_CAPACITY};

/// Number of octaves (powers of two) the histogram scale spans.
pub const OCTAVE_COUNT: usize = 48;

/// Log-linear sub-buckets per octave. Four sub-buckets cut the
/// worst-case relative quantile error from 100% (pure power-of-two
/// buckets, where the reported upper bound can be 2× the true sample)
/// to 25%: within one octave `[2^e, 2^(e+1))` the samples are split
/// linearly at `2^e·1.25`, `2^e·1.5` and `2^e·1.75`.
pub const SUB_BUCKETS: usize = 4;

/// Number of histogram buckets. Bucket 0 absorbs underflow (and NaN /
/// non-positive samples); the last bucket absorbs overflow. Every
/// other bucket `i` holds samples in
/// `[bucket_upper_bound(i-1), bucket_upper_bound(i))`.
pub const BUCKET_COUNT: usize = OCTAVE_COUNT * SUB_BUCKETS;

/// Exponent of the first bucket's upper bound: `2^-30 ≈ 0.93 ns` —
/// comfortably below anything a phase can resolve, so the
/// interesting range `[1 µs, 100 s]` sits in the middle of the scale
/// with headroom for model quantities (energies, byte counts) too:
/// the last octave's lower bound is `2^17 = 131072`.
pub const BUCKET_EXP_MIN: i32 = -30;

/// Capacity of the bounded event ring buffer; older events are dropped
/// (and counted) once it fills.
pub const EVENT_CAPACITY: usize = 1024;

/// Map a sample to its log-linear bucket, using only the IEEE-754
/// exponent bits and the top two mantissa bits — no libm, fully
/// deterministic on every platform.
///
/// Non-positive and NaN samples land in bucket 0; `+inf` in the last.
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        // NaN, zero, negative: clamp to the underflow bucket.
        return 0;
    }
    if v.is_infinite() {
        return BUCKET_COUNT - 1;
    }
    let bits = v.to_bits();
    // Subnormals decode to exponent -1023 and clamp into bucket 0,
    // which is exactly where sub-2^-30 values belong.
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let sub = ((bits >> 50) & 0x3) as i32; // top two mantissa bits
    let idx = (exp - BUCKET_EXP_MIN) * SUB_BUCKETS as i32 + sub + 1;
    idx.clamp(0, BUCKET_COUNT as i32 - 1) as usize
}

/// Exact upper bound of bucket `i`: `2^(BUCKET_EXP_MIN)` for the
/// underflow bucket, `2^(BUCKET_EXP_MIN + OCTAVE_COUNT)` for the
/// overflow bucket, and `2^(BUCKET_EXP_MIN + octave)·(1 + (sub+1)/4)`
/// in between. Every bound is exactly representable (a power of two
/// times a 2-bit fraction), so reporting them over the wire is
/// deterministic across platforms.
pub fn bucket_upper_bound(i: usize) -> f64 {
    if i == 0 {
        return (2.0f64).powi(BUCKET_EXP_MIN);
    }
    if i >= BUCKET_COUNT - 1 {
        return (2.0f64).powi(BUCKET_EXP_MIN + OCTAVE_COUNT as i32);
    }
    let j = i - 1;
    let octave = (j / SUB_BUCKETS) as i32;
    let sub = (j % SUB_BUCKETS) as f64;
    (2.0f64).powi(BUCKET_EXP_MIN + octave) * (1.0 + (sub + 1.0) / SUB_BUCKETS as f64)
}

/// All `BUCKET_COUNT` upper bounds, in order — the scale the `stats`
/// wire protocol reports alongside histogram counts so clients can
/// interpret bucket occupancy without hard-coding the scheme.
pub fn bucket_bounds() -> Vec<f64> {
    (0..BUCKET_COUNT).map(bucket_upper_bound).collect()
}

// ---------------------------------------------------------------------
// Metric cores (shared, atomic)
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct CounterCore(AtomicU64);

#[derive(Debug, Default)]
struct GaugeCore(AtomicU64); // f64 bit pattern

#[derive(Debug)]
struct HistogramCore {
    count: AtomicU64,
    sum_bits: AtomicU64, // f64 bit pattern, CAS-updated
    buckets: [AtomicU64; BUCKET_COUNT],
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl HistogramCore {
    fn record(&self, v: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .sum_bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Event log
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct EventLog {
    buf: VecDeque<EventRecord>,
    dropped: u64,
}

impl EventLog {
    fn push(&mut self, rec: EventRecord) {
        if self.buf.len() == EVENT_CAPACITY {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }
}

// ---------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------

/// The metric registry an enabled [`Recorder`] shares with its clones.
#[derive(Debug, Default)]
struct Registry {
    /// Logical clock: stamps event records.
    clock: AtomicU64,
    counters: Mutex<BTreeMap<String, Arc<CounterCore>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCore>>>,
    histograms: Mutex<Histograms>,
    events: Mutex<EventLog>,
}

#[derive(Debug, Default)]
struct Histograms {
    by_name: BTreeMap<String, Arc<HistogramCore>>,
    /// Phase name → its `<name>.seconds` entry in `by_name`, so an
    /// opening phase finds its histogram without formatting the name.
    by_phase: BTreeMap<&'static str, Arc<HistogramCore>>,
}

/// What an active [`Recorder`] shares with its clones.
#[derive(Debug)]
struct Inner {
    /// `None` on a tracing-only recorder.
    metrics: Option<Arc<Registry>>,
    tracer: Tracer,
}

/// The tracer an inactive recorder lends out.
static NO_TRACER: Tracer = Tracer::disabled();

/// The wiring unit: cheap to clone (an `Arc` or nothing), threaded
/// through builders into every layer that wants to be observed.
///
/// `Recorder::default()` is **disabled** — every handle it mints is a
/// no-op. [`Recorder::enabled`] turns on a shared metric registry and
/// [`Recorder::with_tracer`] attaches a span tracer; clones share both,
/// so a session's loader, index, layout engine, and frame cache all
/// report into one place.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    /// `None` when metrics and tracing are both off.
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder with a live metric registry.
    pub fn enabled() -> Self {
        let inner = Inner { metrics: Some(Arc::default()), tracer: Tracer::disabled() };
        Recorder { inner: Some(Arc::new(inner)) }
    }

    /// The no-op recorder (same as `Default`).
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether the metric registry is on.
    pub fn is_enabled(&self) -> bool {
        self.metrics().is_some()
    }

    /// Whether metrics or tracing is on — whether a [`Recorder::phase`]
    /// can record anything. Layers keep their recorder exactly when it
    /// is active.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    fn metrics(&self) -> Option<&Registry> {
        self.inner.as_ref()?.metrics.as_deref()
    }

    /// Attach a causal-span [`Tracer`]; clones share it, so every layer
    /// holding a clone of this recorder emits phase spans into the same
    /// per-shard rings. The metric registry is untouched.
    pub fn with_tracer(self, tracer: Tracer) -> Recorder {
        let metrics = self.inner.and_then(|inner| inner.metrics.clone());
        let active = metrics.is_some() || tracer.is_enabled();
        Recorder { inner: active.then(|| Arc::new(Inner { metrics, tracer })) }
    }

    /// The attached causal-span tracer — [`Tracer::disabled`] (and so
    /// provably free: one `Option` branch, no clock reads, no
    /// thread-local access) unless [`Recorder::with_tracer`] installed
    /// a live one.
    pub fn tracer(&self) -> &Tracer {
        self.inner.as_ref().map_or(&NO_TRACER, |inner| &inner.tracer)
    }

    /// Times the scope that holds the returned guard. When it drops,
    /// the elapsed seconds go into histogram `<name>.seconds` (metrics
    /// on; the histogram is registered when the phase opens) and, when
    /// the thread's current trace is sampled, a span `name` joins that
    /// trace. The clock is read once at open and once at drop, and both
    /// sinks share the two readings. On an inactive recorder, or with
    /// metrics off outside a sampled trace, the guard is inert and no
    /// clock is read.
    pub fn phase(&self, name: &'static str) -> Phase {
        self.inner.as_ref().map_or(Phase(None), |inner| inner.open(name, Instant::now))
    }

    /// [`Recorder::phase`] for a scope that began at `started`, before
    /// the trace it belongs to existed: frame decode, whose output
    /// names the command's root span. Its span nests as a leaf under
    /// the span current now, back-dated to `started`.
    pub fn phase_since(&self, name: &'static str, started: Instant) -> Phase {
        self.inner.as_ref().map_or(Phase(None), |inner| inner.open(name, || started))
    }

    /// Look up or create the named counter. Disabled recorders return a
    /// no-op handle without touching any registry.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.metrics().map(|reg| {
            let mut reg = reg.counters.lock().unwrap();
            Arc::clone(reg.entry(name.to_string()).or_default())
        }))
    }

    /// Look up or create the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.metrics().map(|reg| {
            let mut reg = reg.gauges.lock().unwrap();
            Arc::clone(reg.entry(name.to_string()).or_default())
        }))
    }

    /// Look up or create the named histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.metrics().map(|reg| {
            let mut reg = reg.histograms.lock().unwrap();
            Arc::clone(reg.by_name.entry(name.to_string()).or_default())
        }))
    }

    /// Append a discrete event to the bounded ring buffer, stamped with
    /// the next logical-clock value. The stamp is allocated *under* the
    /// ring lock: two concurrent writers must not be able to push their
    /// records in the opposite order of their sequence numbers, or the
    /// ring's monotonicity (which `stats` consumers sort by) would tear.
    pub fn event(&self, name: &str, detail: &str) {
        if let Some(reg) = self.metrics() {
            let mut log = reg.events.lock().unwrap();
            let seq = reg.clock.fetch_add(1, Ordering::Relaxed);
            log.push(EventRecord {
                seq,
                name: name.to_string(),
                detail: detail.to_string(),
            });
        }
    }

    /// Like [`Recorder::snapshot`], but atomically zeros every counter
    /// and histogram as it reads them — the returned snapshot is the
    /// complete tally for the window since the last reset, and the next
    /// window starts from zero. Gauges (last-value model quantities)
    /// and the event ring are read but left untouched. Backs the
    /// `stats {"reset": true}` protocol command, so closed-loop benches
    /// can measure per-window rates without restarting the server.
    pub fn snapshot_and_reset(&self) -> Snapshot {
        self.read(true)
    }

    /// A deterministic, name-sorted copy of every registered metric and
    /// the current event-log contents.
    pub fn snapshot(&self) -> Snapshot {
        self.read(false)
    }

    /// The one snapshot reader: with `reset`, counters and histograms
    /// are swapped to zero as they are read instead of loaded.
    fn read(&self, reset: bool) -> Snapshot {
        let Some(reg) = self.metrics() else {
            return Snapshot::default();
        };
        // `0.0f64.to_bits()` is 0, so one swap value zeros both the
        // integer tallies and the histogram's f64 sum.
        let take = |a: &AtomicU64| {
            if reset { a.swap(0, Ordering::Relaxed) } else { a.load(Ordering::Relaxed) }
        };
        let counters = reg
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, core)| (name.clone(), take(&core.0)))
            .collect();
        let gauges = reg
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, core)| (name.clone(), f64::from_bits(core.0.load(Ordering::Relaxed))))
            .collect();
        let histograms = reg
            .histograms
            .lock()
            .unwrap()
            .by_name
            .iter()
            .map(|(name, core)| HistogramSnapshot {
                name: name.clone(),
                count: take(&core.count),
                sum: f64::from_bits(take(&core.sum_bits)),
                buckets: core.buckets.iter().map(take).collect(),
            })
            .collect();
        let log = reg.events.lock().unwrap();
        Snapshot {
            clock: reg.clock.load(Ordering::Relaxed),
            counters,
            gauges,
            histograms,
            events: log.buf.iter().cloned().collect(),
            events_dropped: log.dropped,
        }
    }
}

// ---------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------

/// Monotonic counter handle. All operations are no-ops on handles from
/// a disabled [`Recorder`].
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<CounterCore>>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        if let Some(core) = &self.0 {
            core.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |core| core.0.load(Ordering::Relaxed))
    }
}

/// Last-value gauge handle storing an `f64`.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<GaugeCore>>);

impl Gauge {
    pub fn set(&self, v: f64) {
        if let Some(core) = &self.0 {
            core.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |core| f64::from_bits(core.0.load(Ordering::Relaxed)))
    }
}

/// Log-scale histogram handle (see [`bucket_index`] for the scheme).
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    pub fn record(&self, v: f64) {
        if let Some(core) = &self.0 {
            core.record(v);
        }
    }

    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |core| core.count.load(Ordering::Relaxed))
    }

    pub fn sum(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |core| f64::from_bits(core.sum_bits.load(Ordering::Relaxed)))
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0 < q <= 1`); 0 when empty. Log-linear resolution: the
    /// reported bound overestimates the true sample by at most 25%
    /// (see [`SUB_BUCKETS`]), tight enough for `--timing` p50/p99
    /// summaries to be read as real latencies.
    pub fn quantile(&self, q: f64) -> f64 {
        let Some(core) = &self.0 else { return 0.0 };
        let count = core.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0.0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, b) in core.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKET_COUNT - 1)
    }
}

impl Inner {
    /// Opens a phase: looks up its histogram (metrics on) and its
    /// parent span (current trace sampled), and reads the clock through
    /// `now` only when either sink is there to be fed.
    fn open(&self, name: &'static str, now: impl FnOnce() -> Instant) -> Phase {
        let histogram = self.metrics.as_ref().map(|reg| {
            let mut reg = reg.histograms.lock().unwrap();
            let Histograms { by_name, by_phase } = &mut *reg;
            Arc::clone(by_phase.entry(name).or_insert_with(|| {
                Arc::clone(by_name.entry(format!("{name}.seconds")).or_default())
            }))
        });
        let parent = self.tracer.sampled_parent();
        if histogram.is_none() && parent.is_none() {
            return Phase(None);
        }
        let start = now();
        let span = parent.map(|p| p.open(name, String::new(), start));
        Phase(Some(LivePhase { start, histogram, span }))
    }
}

/// RAII guard from [`Recorder::phase`]: on drop, records the scope's
/// wall-clock seconds into its histogram and finishes its span.
#[derive(Debug)]
pub struct Phase(Option<LivePhase>);

#[derive(Debug)]
struct LivePhase {
    start: Instant,
    histogram: Option<Arc<HistogramCore>>,
    span: Option<span::LiveSpan>,
}

impl Drop for Phase {
    fn drop(&mut self) {
        let Some(live) = self.0.take() else { return };
        let end = Instant::now();
        if let Some(h) = live.histogram {
            h.record(end.saturating_duration_since(live.start).as_secs_f64());
        }
        if let Some(span) = live.span {
            span.finish(end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::default();
        assert!(!r.is_enabled());
        let c = r.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = r.gauge("y");
        g.set(3.5);
        assert_eq!(g.get(), 0.0);
        let h = r.histogram("z");
        h.record(1.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        r.event("e", "detail");
        assert!(!r.is_active());
        assert!(r.phase("s").0.is_none(), "an inactive recorder opens inert phases");
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn handles_share_the_registry() {
        let r = Recorder::enabled();
        let a = r.counter("hits");
        let b = r.counter("hits");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(r.clone().counter("hits").get(), 3, "clones share state");
        r.gauge("load").set(0.25);
        assert_eq!(r.gauge("load").get(), 0.25);
    }

    #[test]
    fn bucket_index_is_a_log_scale() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(f64::INFINITY), BUCKET_COUNT - 1);
        assert_eq!(bucket_index(1e-300), 0, "underflow clamps");
        assert_eq!(bucket_index(1e300), BUCKET_COUNT - 1, "overflow clamps");
        // 1.5 has exponent 0 -> bucket with upper bound 2^1.
        let i = bucket_index(1.5);
        assert!(bucket_upper_bound(i) >= 1.5);
        assert!(bucket_upper_bound(i) / 1.5 <= 2.0);
        // Monotone in the sample value.
        let mut prev = 0usize;
        let mut v = 1e-10;
        while v < 1e6 {
            let i = bucket_index(v);
            assert!(i >= prev, "bucket index must be monotone");
            prev = i;
            v *= 3.0;
        }
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let r = Recorder::enabled();
        let h = r.histogram("lat");
        for _ in 0..90 {
            h.record(0.001); // ~1 ms
        }
        for _ in 0..10 {
            h.record(1.0); // 1 s
        }
        assert_eq!(h.count(), 100);
        assert!((h.sum() - 10.09).abs() < 1e-9 * 100.0);
        let p50 = h.quantile(0.50);
        assert!(p50 < 0.01, "median is in the ~1 ms bucket, got {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= 1.0, "p99 is in the ~1 s bucket, got {p99}");
    }

    #[test]
    fn phase_records_into_its_seconds_histogram() {
        let r = Recorder::enabled();
        {
            let _p = r.phase("work");
            assert_eq!(r.snapshot().histograms[0].name, "work.seconds", "registered at open");
            assert_eq!(r.histogram("work.seconds").count(), 0);
        }
        drop(r.phase("work"));
        let h = r.histogram("work.seconds");
        assert_eq!(h.count(), 2);
        assert!(h.sum() >= 0.0);
        assert_eq!(r.snapshot().histograms.len(), 1, "one histogram per phase name");
    }

    /// One phase, one pair of clock readings: with metrics and a
    /// sampled trace, the histogram sample and the span cover the same
    /// interval. Metrics-off recorders with a live tracer still record
    /// the span, and register no histogram.
    #[test]
    fn phase_feeds_histogram_and_span_from_one_clock() {
        let tracer = Tracer::enabled(1, 9, 1);
        let both = Recorder::enabled().with_tracer(tracer.clone());
        {
            let _root = tracer.root(0, "cmd", "");
            let _p = both.phase("agg.index.build");
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let (spans, _) = tracer.finished_spans();
        let span = spans.iter().find(|s| s.name == "agg.index.build").expect("span");
        let h = both.histogram("agg.index.build.seconds");
        assert_eq!(h.count(), 1);
        assert!(span.duration_ns() >= 200_000);
        assert!((h.sum() * 1e9 - span.duration_ns() as f64).abs() < 1.0, "same two readings");

        let traced = Recorder::disabled().with_tracer(tracer.clone());
        assert!(traced.is_active() && !traced.is_enabled());
        {
            let _root = tracer.root(0, "cmd", "");
            drop(traced.phase("lod.cut"));
        }
        drop(traced.phase("outside.any.trace"));
        assert!(traced.snapshot().histograms.is_empty());
        let (spans, _) = tracer.finished_spans();
        assert_eq!(spans.iter().filter(|s| s.name == "lod.cut").count(), 1);
        assert!(spans.iter().all(|s| s.name != "outside.any.trace"));
    }

    #[test]
    fn phase_since_backdates_a_leaf_under_the_current_span() {
        let tracer = Tracer::enabled(1, 11, 1);
        let r = Recorder::enabled().with_tracer(tracer.clone());
        let started = Instant::now();
        std::thread::sleep(std::time::Duration::from_micros(100));
        {
            let _root = tracer.root(0, "cmd", "");
            drop(r.phase_since("frame.decode", started));
        }
        let (spans, _) = tracer.finished_spans();
        let (decode, root) = (&spans[0], &spans[1]);
        assert_eq!(decode.name, "frame.decode");
        assert_eq!(decode.parent, root.id);
        assert_eq!(decode.end_tick, decode.start_tick + 1, "a leaf");
        assert!(decode.start_tick > root.start_tick && decode.end_tick < root.end_tick);
        assert!(decode.start_ns < root.start_ns, "back-dated past its root");
        assert!(decode.duration_ns() >= 100_000);
        assert_eq!(r.histogram("frame.decode.seconds").count(), 1);
    }

    #[test]
    fn event_log_is_bounded_and_ordered() {
        let r = Recorder::enabled();
        for i in 0..(EVENT_CAPACITY + 10) {
            r.event("e", &format!("{i}"));
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), EVENT_CAPACITY);
        assert_eq!(snap.events_dropped, 10);
        // Oldest surviving record is #10, and seqs ascend.
        assert_eq!(snap.events[0].detail, "10");
        for w in snap.events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    /// Satellite regression: with 4 log-linear sub-buckets per octave,
    /// the quantile estimate (a bucket upper bound) may overshoot the
    /// true sample by at most 25%. The old power-of-two scheme was off
    /// by up to 100% — `--timing` p50/p99 could read 2× high.
    #[test]
    fn bucket_bounds_pin_relative_quantile_error() {
        // Sweep the whole in-range scale on a dense multiplicative grid.
        let mut v = 1.5e-9; // just above 2^-30
        while v < 1.0e5 {
            let i = bucket_index(v);
            let upper = bucket_upper_bound(i);
            assert!(upper >= v, "upper bound below sample at {v}");
            let rel = (upper - v) / v;
            assert!(rel <= 0.25 + 1e-12, "relative error {rel} at {v} (bucket {i})");
            // The bucket is half-open: its lower neighbour ends at or
            // below the sample.
            if i > 0 {
                assert!(bucket_upper_bound(i - 1) <= v, "sample below bucket at {v}");
            }
            v *= 1.0137;
        }
        // And through a histogram: a point mass has every quantile in
        // its own bucket, so the estimate is within 25% of the truth.
        let r = Recorder::enabled();
        let h = r.histogram("q");
        for _ in 0..1000 {
            h.record(0.0042);
        }
        for q in [0.5, 0.9, 0.99, 1.0] {
            let est = h.quantile(q);
            assert!(est >= 0.0042, "quantile below the only sample");
            assert!((est - 0.0042) / 0.0042 <= 0.25, "q{q} estimate {est} off by >25%");
        }
        // Bounds are strictly increasing and exactly reproducible.
        let bounds = bucket_bounds();
        assert_eq!(bounds.len(), BUCKET_COUNT);
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "bounds must be strictly increasing");
        }
        assert_eq!(bounds[0], (2.0f64).powi(BUCKET_EXP_MIN));
        assert_eq!(bounds[BUCKET_COUNT - 1], (2.0f64).powi(BUCKET_EXP_MIN + OCTAVE_COUNT as i32));
    }

    #[test]
    fn snapshot_and_reset_zeros_counters_and_histograms_only() {
        let r = Recorder::enabled();
        r.counter("hits").add(7);
        r.gauge("energy").set(2.5);
        r.histogram("lat").record(0.01);
        r.event("freeze", "x");
        let win = r.snapshot_and_reset();
        assert_eq!(win.counters, vec![("hits".into(), 7)]);
        assert_eq!(win.histograms[0].count, 1);
        assert_eq!(win.events.len(), 1, "events are reported, not cleared");
        // The next window starts from zero — except gauges and events.
        let after = r.snapshot();
        assert_eq!(after.counters, vec![("hits".into(), 0)]);
        assert_eq!(after.histograms[0].count, 0);
        assert_eq!(after.histograms[0].sum, 0.0);
        assert!(after.histograms[0].buckets.iter().all(|b| *b == 0));
        assert_eq!(after.gauges, vec![("energy".into(), 2.5)]);
        assert_eq!(after.events.len(), 1);
        // Disabled recorders reset to nothing, quietly.
        assert!(Recorder::disabled().snapshot_and_reset().counters.is_empty());
    }

    /// Satellite stress: the bounded event ring at capacity under 8
    /// concurrent writers must keep logical clocks monotone per
    /// snapshot order, never tear an entry (name and detail always
    /// agree), and account for every drop.
    #[test]
    fn event_ring_survives_concurrent_wraparound() {
        let r = Recorder::enabled();
        const THREADS: usize = 8;
        const PER_THREAD: usize = 400; // 3200 total >> EVENT_CAPACITY
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let tag = format!("{t}:{i}");
                    r.event(&format!("writer-{tag}"), &tag);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), EVENT_CAPACITY, "ring holds exactly its capacity");
        assert_eq!(
            snap.events_dropped as usize,
            THREADS * PER_THREAD - EVENT_CAPACITY,
            "every displaced record is counted"
        );
        for w in snap.events.windows(2) {
            assert!(w[0].seq < w[1].seq, "logical clocks stay strictly monotone");
        }
        for e in &snap.events {
            assert_eq!(
                e.name,
                format!("writer-{}", e.detail),
                "entry torn: name and detail disagree"
            );
        }
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Recorder::enabled();
        r.counter("zeta").inc();
        r.counter("alpha").inc();
        r.histogram("mid").record(1.0);
        r.histogram("aaa").record(2.0);
        let snap = r.snapshot();
        let names: Vec<_> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        let hnames: Vec<_> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(hnames, ["aaa", "mid"]);
    }
}
