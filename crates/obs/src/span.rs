//! Causal span tracing: who called what, and where the time went.
//!
//! Counters and histograms (the rest of `viva-obs`) answer "how many"
//! and "how long on average"; they cannot answer *"where did this one
//! slow `render` spend its time?"*. That question needs parent-linked
//! spans — the aggregate-driven trace model of Anand et al. — and this
//! module supplies them with the same discipline as the rest of the
//! crate:
//!
//! * **Zero cost when disabled.** [`Tracer::disabled`] is a `None`
//!   inner; every operation is a single `Option` branch — no clock
//!   read, no thread-local access, no allocation. The serving layer's
//!   byte-identical-transcript promise survives untouched.
//! * **Lock-light when enabled.** Each shard worker owns a bounded
//!   ring ([`SPAN_CAPACITY`] records) behind its own mutex; a span
//!   touches only its shard's ring, and only once, at drop.
//! * **Deterministic head-sampling.** The keep/drop decision is made
//!   once per root span from a seeded hash of the root's arrival index
//!   ([`sample_one_in`]) — never from wall time — so two replays of
//!   the same script with the same seed sample the same trees.
//! * **Two clocks per span.** Wall time in nanoseconds (for real
//!   profiling: `viva-server-client --profile`) *and* a logical tick
//!   pair (for deterministic artifacts: the `--self-trace` export that
//!   viva renders of itself). Ticks advance only on sampled span
//!   start/end, so they are as reproducible as the sampling decision.
//!
//! Propagation is thread-local: a live root parks its context in a
//! thread-local slot and [`Recorder::phase`](crate::Recorder::phase)
//! opens children of whatever is current, which lets deep layers
//! (trace loading, aggregation, layout, LoD, SVG) emit phase spans
//! without threading a context through every signature. A child
//! therefore always runs on its parent's thread, and records its
//! parent's shard.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Capacity of each per-shard span ring; once full, the oldest records
/// are dropped (and counted) — recent history wins, like the event log.
pub const SPAN_CAPACITY: usize = 4096;

/// Identity of one span within its tracer. `0` means "none" and is
/// never allocated to a real span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null id: no span.
    pub const NONE: SpanId = SpanId(0);
}

/// One finished span, as read back by [`Tracer::finished_spans`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Tree identity (equals the sampled root's arrival index + 1).
    pub trace_id: u64,
    /// This span's id; unique within the tracer, allocated at start,
    /// so parents always have smaller ids than their children.
    pub id: SpanId,
    /// Parent span id; [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// Static phase name (e.g. `"render"`, `"session.render"`).
    pub name: &'static str,
    /// Free-form annotation — the session name on command roots, empty
    /// on most phase spans.
    pub detail: String,
    /// The shard worker the span ran on.
    pub shard: u16,
    /// Logical tick at start (deterministic under a fixed seed).
    pub start_tick: u64,
    /// Logical tick at end; always `> start_tick`.
    pub end_tick: u64,
    /// Wall-clock start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Wall-clock end, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Logical duration in ticks: 1 + the number of sampled span
    /// starts/ends nested inside — a deterministic proxy for "work".
    pub fn duration_ticks(&self) -> u64 {
        self.end_tick.saturating_sub(self.start_tick)
    }
}

/// The deterministic head-sampling predicate: keep root `index` iff the
/// seeded splitmix64 hash of its arrival index lands in residue 0 mod
/// `n`. `n = 0` and `n = 1` both mean "keep everything"; the hash (not
/// `index % n`) is what keeps periodic workloads from beating against
/// the sampling period.
pub fn sample_one_in(seed: u64, index: u64, n: u64) -> bool {
    if n <= 1 {
        return true;
    }
    // splitmix64 finalizer — dependency-free, platform-independent.
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z.is_multiple_of(n)
}

#[derive(Debug, Default)]
struct ShardRing {
    buf: VecDeque<SpanRecord>,
    dropped: u64,
}

impl ShardRing {
    fn push(&mut self, rec: SpanRecord) {
        if self.buf.len() == SPAN_CAPACITY {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }
}

#[derive(Debug)]
struct TracerInner {
    seed: u64,
    sample_n: u64,
    epoch: Instant,
    /// Logical clock; advances on every sampled span start and end.
    clock: AtomicU64,
    /// Root arrival counter — feeds the sampling decision and trace ids.
    roots: AtomicU64,
    /// Span-id allocator; starts at 1 so 0 stays "none".
    next_span: AtomicU64,
    shards: Vec<Mutex<ShardRing>>,
}

thread_local! {
    /// The span currently live on this thread, the implicit parent for
    /// [`Recorder::phase`](crate::Recorder::phase): its trace id (`0`
    /// when there is none or it is unsampled), its id and its shard.
    static CURRENT: Cell<(u64, SpanId, u16)> = const { Cell::new((0, SpanId::NONE, 0)) };
}

/// The span sink: cheap to clone, shared by every layer that emits
/// spans. Like [`crate::Recorder`], its default state is disabled and
/// every operation on a disabled tracer is a no-op.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A live tracer with `shards` independent rings, sampling one root
    /// trace in `sample_n` (seeded, deterministic — see
    /// [`sample_one_in`]).
    pub fn enabled(shards: usize, seed: u64, sample_n: u64) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                seed,
                sample_n,
                epoch: Instant::now(),
                clock: AtomicU64::new(0),
                roots: AtomicU64::new(0),
                next_span: AtomicU64::new(1),
                shards: (0..shards.max(1)).map(|_| Mutex::new(ShardRing::default())).collect(),
            })),
        }
    }

    /// The no-op tracer (same as `Default`).
    pub const fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of shard rings (0 when disabled).
    pub fn shard_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.shards.len())
    }

    /// Current logical clock value (0 when disabled).
    pub fn clock(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.load(Ordering::Relaxed))
    }

    /// Start a root span for a new causal tree on `shard`. The sampling
    /// decision happens here — an unsampled root (and every descendant)
    /// costs one atomic increment and records nothing.
    pub fn root(&self, shard: u16, name: &'static str, detail: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard::noop();
        };
        let index = inner.roots.fetch_add(1, Ordering::Relaxed);
        if !sample_one_in(inner.seed, index, inner.sample_n) {
            return SpanGuard::noop();
        }
        let root = Parent { inner, trace_id: index + 1, span: SpanId::NONE, shard };
        let live = root.open(name, detail.to_string(), Instant::now());
        SpanGuard { live: Some(live) }
    }

    /// The thread-current span to open a child under, when this tracer
    /// is live and that span is sampled: the test
    /// [`Recorder::phase`](crate::Recorder::phase) makes before it reads
    /// the clock.
    pub(crate) fn sampled_parent(&self) -> Option<Parent<'_>> {
        let inner = self.inner.as_ref()?;
        let (trace_id, span, shard) = CURRENT.get();
        (trace_id != 0).then_some(Parent { inner, trace_id, span, shard })
    }

    /// A deterministic copy of every finished span: shards in index
    /// order, each ring oldest-first (rings are push-ordered by span
    /// *end*). Also returns the total number of records dropped to ring
    /// bounds, so exporters can say what they did not see.
    pub fn finished_spans(&self) -> (Vec<SpanRecord>, u64) {
        let Some(inner) = &self.inner else {
            return (Vec::new(), 0);
        };
        let mut out = Vec::new();
        let mut dropped = 0u64;
        for shard in &inner.shards {
            let ring = shard.lock().unwrap();
            out.extend(ring.buf.iter().cloned());
            dropped += ring.dropped;
        }
        (out, dropped)
    }
}

/// A sampled span to open children under (see
/// [`Tracer::sampled_parent`]).
pub(crate) struct Parent<'a> {
    inner: &'a Arc<TracerInner>,
    trace_id: u64,
    /// [`SpanId::NONE`] when opening a root.
    span: SpanId,
    shard: u16,
}

impl Parent<'_> {
    /// Opens `name` under this parent, started at `start`, and makes it
    /// the thread-current span until it finishes.
    pub(crate) fn open(self, name: &'static str, detail: String, start: Instant) -> LiveSpan {
        let inner = self.inner;
        let id = SpanId(inner.next_span.fetch_add(1, Ordering::Relaxed));
        let start_tick = inner.clock.fetch_add(1, Ordering::Relaxed);
        let start_ns = start.saturating_duration_since(inner.epoch).as_nanos() as u64;
        let prev = CURRENT.replace((self.trace_id, id, self.shard));
        LiveSpan {
            inner: Arc::clone(inner),
            trace_id: self.trace_id,
            id,
            parent: self.span,
            name,
            detail,
            shard: self.shard,
            start_tick,
            start_ns,
            prev,
        }
    }
}

/// An open, sampled span.
#[derive(Debug)]
pub(crate) struct LiveSpan {
    inner: Arc<TracerInner>,
    trace_id: u64,
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    detail: String,
    shard: u16,
    start_tick: u64,
    start_ns: u64,
    /// The thread-current span to restore when this span ends.
    prev: (u64, SpanId, u16),
}

impl LiveSpan {
    /// Stamps the end tick and `end`, restores the thread-current
    /// context and pushes the record into its shard's ring.
    pub(crate) fn finish(self, end: Instant) {
        let inner = self.inner;
        let end_tick = inner.clock.fetch_add(1, Ordering::Relaxed);
        let end_ns = end.saturating_duration_since(inner.epoch).as_nanos() as u64;
        CURRENT.set(self.prev);
        let shard = self.shard as usize % inner.shards.len();
        inner.shards[shard].lock().unwrap().push(SpanRecord {
            trace_id: self.trace_id,
            id: self.id,
            parent: self.parent,
            name: self.name,
            detail: self.detail,
            shard: self.shard,
            start_tick: self.start_tick,
            end_tick,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

/// RAII root span from [`Tracer::root`]: finishes (stamps end tick and
/// end ns, pushes its record into its shard's ring, restores the
/// thread-current context) on drop. Guards from disabled tracers or
/// unsampled trees hold nothing and do nothing.
#[derive(Debug, Default)]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl SpanGuard {
    /// The do-nothing guard.
    pub fn noop() -> SpanGuard {
        SpanGuard { live: None }
    }

    /// Whether this span is actually recording.
    pub fn is_sampled(&self) -> bool {
        self.live.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            live.finish(Instant::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    /// A metrics-off recorder carrying `t`: the `--self-trace` shape,
    /// and the only way to open phase spans.
    fn phases(t: &Tracer) -> Recorder {
        Recorder::disabled().with_tracer(t.clone())
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.shard_count(), 0);
        assert_eq!(t.clock(), 0);
        let root = t.root(0, "cmd", "sess");
        assert!(!root.is_sampled());
        assert!(t.sampled_parent().is_none());
        drop(phases(&t).phase("inner"));
        drop(root);
        assert_eq!(t.finished_spans().0.len(), 0);
    }

    #[test]
    fn spans_nest_and_link_parents() {
        let t = Tracer::enabled(1, 7, 1);
        let r = phases(&t);
        {
            let root = t.root(0, "render", "demo");
            assert!(root.is_sampled());
            {
                let _a = r.phase("layout.step");
                let _b = r.phase("lod.cut");
            }
            drop(r.phase("session.render"));
        }
        let (spans, dropped) = t.finished_spans();
        assert_eq!(dropped, 0);
        assert_eq!(spans.len(), 4);
        // Rings are end-ordered: lod.cut ends first, root last.
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["lod.cut", "layout.step", "session.render", "render"]);
        let (lod, layout, svg, root) = (&spans[0], &spans[1], &spans[2], &spans[3]);
        assert_eq!(root.parent, SpanId::NONE);
        assert_eq!(root.detail, "demo");
        assert_eq!(layout.parent, root.id);
        assert_eq!(lod.parent, layout.id, "phase nests under the innermost live span");
        assert_eq!(svg.parent, root.id, "a finished phase restores its parent");
        assert!(spans.iter().all(|s| s.trace_id == root.trace_id));
        // Tick intervals nest strictly.
        assert!(root.start_tick < layout.start_tick);
        assert!(layout.start_tick < lod.start_tick);
        assert!(lod.end_tick < layout.end_tick);
        assert!(layout.end_tick < svg.start_tick);
        assert!(svg.end_tick < root.end_tick);
        assert!(root.end_ns >= root.start_ns);
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let n = 16u64;
        let picks = |seed: u64| -> Vec<bool> {
            (0..2048).map(|i| sample_one_in(seed, i, n)).collect()
        };
        assert_eq!(picks(42), picks(42), "same seed, same picks");
        assert_ne!(picks(42), picks(43), "different seeds diverge");
        let kept = picks(42).iter().filter(|k| **k).count();
        // ~1/16 of 2048 = 128; allow generous slack, not bias.
        assert!((32..=512).contains(&kept), "kept {kept} of 2048");
        assert!(picks(9).len() == 2048);
        assert!(sample_one_in(1, 5, 0) && sample_one_in(1, 5, 1), "n<=1 keeps all");
    }

    #[test]
    fn sampled_tracer_replays_identically() {
        let run = || {
            let t = Tracer::enabled(2, 0xfeed, 4);
            let r = phases(&t);
            for i in 0..64u16 {
                let root = t.root(i % 2, "cmd", "s");
                drop(r.phase("phase"));
                drop(root);
            }
            let (spans, _) = t.finished_spans();
            spans
                .iter()
                .map(|s| (s.trace_id, s.id, s.parent, s.name, s.shard, s.start_tick, s.end_tick))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same seed + same script = same span trees");
    }

    #[test]
    fn phases_inherit_the_shard_of_their_parent() {
        let t = Tracer::enabled(4, 5, 1);
        let r = phases(&t);
        {
            let _root = t.root(3, "relax", "");
            drop(r.phase("layout.step"));
        }
        let (spans, _) = t.finished_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.shard == 3), "{spans:?}");
    }

    #[test]
    fn unsampled_roots_record_nothing() {
        // sample 1-in-u64::MAX: overwhelmingly unsampled.
        let t = Tracer::enabled(1, 3, u64::MAX);
        let r = phases(&t);
        let mut any = false;
        for _ in 0..256 {
            let root = t.root(0, "cmd", "");
            any |= root.is_sampled();
            let _child = r.phase("x");
        }
        let (spans, _) = t.finished_spans();
        assert_eq!(spans.len(), if any { 2 } else { 0 });
        assert!(t.clock() <= 4, "clock only moves for sampled spans");
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let t = Tracer::enabled(1, 1, 1);
        for _ in 0..(SPAN_CAPACITY + 25) {
            drop(t.root(0, "cmd", ""));
        }
        let (spans, dropped) = t.finished_spans();
        assert_eq!(spans.len(), SPAN_CAPACITY);
        assert_eq!(dropped, 25);
        // Oldest surviving record is root #26 (trace ids start at 1).
        assert_eq!(spans[0].trace_id, 26);
    }
}
