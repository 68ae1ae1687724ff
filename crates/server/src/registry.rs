//! Many named analysis sessions behind one server.
//!
//! The [`SessionRegistry`] is the shared-machine piece of the serving
//! layer: each analyst (or tab, or benchmark client) works in a named
//! session holding its own [`viva::AnalysisSession`] and frame cache.
//! Sessions are protected by **per-session locks**, so two connections
//! driving different sessions never contend, while two connections
//! driving the *same* session serialize their commands (the analysis
//! session is single-writer by design).
//!
//! The registry itself is read-mostly: the name → slot map sits behind
//! an `RwLock` and the LRU clock and per-slot recency ticks are
//! atomics, so the hot lookup path (`get`) never takes an exclusive
//! lock. Each slot additionally carries its frame cache behind its own
//! small mutex and a lock-free mirror of the session revision, which is
//! what lets a cached render answer without touching the session lock
//! at all — the fix for the p99 collapse under many concurrent
//! sessions.
//!
//! Capacity is bounded: creating a session beyond
//! [`ServerLimits::max_sessions`] evicts the least-recently-*used*
//! session, tracked with a logical clock so eviction order is a pure
//! function of the command history — wall time never leaks into
//! protocol-visible behaviour.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use viva::{AnalysisSession, GraphView};
use viva_obs::Recorder;
use viva_trace::{live, JournalWriter, ResourceBudget};

use crate::cache::FrameCache;
use crate::protocol::CommandClass;

/// Per-class deadline budgets, milliseconds. `None` disables the
/// deadline for that class — and with every class disabled (the
/// default) the command path never reads the wall clock, which is what
/// keeps golden transcripts reproducible. `Some(0)` is a budget that
/// is *always* already exhausted (also without reading the clock),
/// which is how tests exercise the breach path deterministically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineBudgets {
    /// Budget for [`CommandClass::Control`] commands.
    pub control_ms: Option<u64>,
    /// Budget for [`CommandClass::Interact`] commands.
    pub interact_ms: Option<u64>,
    /// Budget for [`CommandClass::Load`] commands.
    pub load_ms: Option<u64>,
    /// Budget for [`CommandClass::Relax`] commands.
    pub relax_ms: Option<u64>,
    /// Budget for [`CommandClass::Render`] commands.
    pub render_ms: Option<u64>,
}

impl DeadlineBudgets {
    /// Budgets tuned for interactive serving: cheap bookkeeping answers
    /// fast or not at all, loads get seconds, renders get a couple.
    pub fn interactive() -> DeadlineBudgets {
        DeadlineBudgets {
            control_ms: Some(50),
            interact_ms: Some(100),
            load_ms: Some(10_000),
            relax_ms: Some(1_000),
            render_ms: Some(2_000),
        }
    }

    /// The budget billed against `class`.
    pub fn budget_for(self, class: CommandClass) -> Option<u64> {
        match class {
            CommandClass::Control => self.control_ms,
            CommandClass::Interact => self.interact_ms,
            CommandClass::Load => self.load_ms,
            CommandClass::Relax => self.relax_ms,
            CommandClass::Render => self.render_ms,
        }
    }
}

/// Hard ceilings a server instance enforces; the serving analogue of
/// [`ResourceBudget`]. Defaults are sized for an interactive
/// multi-analyst workstation.
#[derive(Debug, Clone)]
pub struct ServerLimits {
    /// Live sessions kept before LRU eviction.
    pub max_sessions: usize,
    /// Per-`relax`-command cap on layout iterations (a hostile
    /// `{"steps": 1e15}` must not pin a worker thread).
    pub max_relax_steps: u64,
    /// Per-request-line byte cap (the trace upload arrives inline, so
    /// this is generous — but bounded).
    pub max_line_bytes: usize,
    /// Frames each session's cache retains.
    pub frame_cache_frames: usize,
    /// Ingestion budget applied to every `load_trace` (and to the
    /// trace embedded in a `restore` checkpoint).
    pub load_budget: ResourceBudget,
    /// Commands allowed in flight across the whole server before
    /// admission control sheds with `overloaded`. Shedding is
    /// deterministic — over the limit the command is refused before
    /// any work starts; nothing queues.
    pub max_inflight_commands: usize,
    /// Connections allowed to *wait* on one session's lock (the
    /// holder is not counted). Beyond this the command is shed —
    /// a convoy on a hot session must not absorb every worker thread.
    pub max_session_waiters: usize,
    /// Back-off hint carried by `overloaded` responses, milliseconds.
    pub overload_retry_after_ms: u64,
    /// Per-class command deadlines. All `None` by default: deadlines
    /// are opt-in because enforcing them reads the wall clock.
    pub deadlines: DeadlineBudgets,
    /// Read/write timeout on TCP connections, milliseconds (`None`
    /// disables). A peer that trickles bytes or stops reading holds
    /// buffers on a shard; this bounds for how long (slow-loris
    /// defense).
    pub io_timeout_ms: Option<u64>,
    /// Directory session checkpoints are written to (on `checkpoint`,
    /// on LRU eviction, and on drain) and read from by `restore`
    /// without an inline state. `None` disables persistence;
    /// `checkpoint`/`restore` still work inline.
    pub checkpoint_dir: Option<PathBuf>,
    /// Directory live-session journals are written to. `None` disables
    /// durability: `append` still works but an `appended` ack only
    /// promises in-memory application, and a crash loses the stream.
    pub journal_dir: Option<PathBuf>,
    /// Journal fsync batching: sync the journal file every N appended
    /// records (and always on seal). `1` means sync-per-record — the
    /// strongest durability, what the crash-recovery smoke test runs.
    pub journal_sync_every: u32,
    /// Per-subscriber bound on queued push lines. A subscriber whose
    /// connection stops draining is shed once its queue reaches this
    /// bound: the queue is dropped and replaced with a single
    /// `lagging` push naming the oldest lost sequence number, so the
    /// client can re-subscribe without silent gaps. Appends never
    /// block on subscribers.
    pub subscriber_queue: usize,
}

impl Default for ServerLimits {
    fn default() -> Self {
        ServerLimits {
            max_sessions: 32,
            max_relax_steps: 20_000,
            max_line_bytes: 64 << 20, // 64 MiB: inline trace uploads
            frame_cache_frames: 32,
            load_budget: ResourceBudget {
                // Tighter than the workstation default: server traces
                // arrive from the network.
                max_events: 5_000_000,
                max_containers: 100_000,
                max_line_bytes: 1 << 20,
                max_memory_bytes: 512 << 20,
                max_diagnostics: 64,
            },
            max_inflight_commands: 64,
            max_session_waiters: 4,
            overload_retry_after_ms: 50,
            deadlines: DeadlineBudgets::default(),
            io_timeout_ms: Some(30_000),
            checkpoint_dir: None,
            journal_dir: None,
            journal_sync_every: 64,
            subscriber_queue: 64,
        }
    }
}

/// The streaming half of a live session: the append cursor, the
/// durable journal behind it, and the accumulated event text that
/// *defines* the session's content (a live session always equals the
/// lenient load of its acked texts, concatenated in sequence order —
/// the invariant crash recovery restores).
#[derive(Debug)]
pub struct LiveStream {
    /// Durable backing, when the server has a journal directory.
    pub journal: Option<JournalWriter>,
    /// Highest acknowledged sequence number (appends are contiguous:
    /// the next must be `last_seq + 1`; re-sends of older numbers are
    /// acked as duplicates without re-applying).
    pub last_seq: u64,
    /// Every acked event text, joined by [`LiveStream::extend`].
    /// Structural records force a rebuild from this text.
    text: String,
    /// The trace extent the stream has declared, if any — the last
    /// valid `span` record wins, exactly as in a batch load.
    span: Option<(f64, f64)>,
    /// Sealed streams refuse further appends (the journal, if any, is
    /// sealed too, so recovery knows the stream ended on purpose).
    pub sealed: bool,
    /// The view as of the last published delta — the diff base.
    /// `None` until the first subscriber snapshot, so sessions nobody
    /// watches never pay for view extraction.
    pub last_view: Option<GraphView>,
}

impl LiveStream {
    /// A stream at `last_seq` with no text yet.
    pub fn new(journal: Option<JournalWriter>, last_seq: u64, sealed: bool) -> LiveStream {
        LiveStream { journal, last_seq, text: String::new(), span: None, sealed, last_view: None }
    }

    /// Adds one acked text, joined to the previous one by a newline
    /// unless that ends in one, and folds its `span` records.
    pub fn extend(&mut self, text: &str) {
        if !self.text.is_empty() && !self.text.ends_with('\n') {
            self.text.push('\n');
        }
        self.text.push_str(text);
        if let Some(span) = text.lines().filter_map(live::declared_span).next_back() {
            self.span = Some(span);
        }
    }

    /// Every acked text, joined: its lenient load is the content.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The span the stream has declared so far.
    pub fn span(&self) -> Option<(f64, f64)> {
        self.span
    }
}

/// One named session: the analysis state behind the per-session lock.
/// The frame cache lives on the [`SessionSlot`], outside this lock, so
/// cached renders never serialize behind a slow command.
#[derive(Debug)]
pub struct ServerSession {
    /// The interactive analysis this session wraps.
    pub analysis: AnalysisSession,
    /// Streaming state, present only on sessions fed by `append`.
    /// Batch-loaded and restored sessions leave this `None` and are
    /// indistinguishable from before streaming existed.
    pub live: Option<LiveStream>,
}

/// A registry slot: the session behind its per-session lock, plus the
/// pieces the fast paths read without that lock — the frame cache
/// (its own mutex), a lock-free mirror of the session revision, the
/// session's recorder, and the LRU recency tick. The waiter count is
/// what lets admission control bound the convoy on a hot session
/// ([`ServerLimits::max_session_waiters`]) instead of letting every
/// worker thread pile up behind one slow command.
#[derive(Debug)]
pub struct SessionSlot {
    lock: Mutex<ServerSession>,
    waiters: AtomicUsize,
    /// Rendered-frame cache keyed on (revision, viewport, theme).
    /// Separate mutex: a cache hit takes this lock only.
    frames: Mutex<FrameCache>,
    /// Mirror of `analysis.revision()`, published after every command
    /// while the session lock is still held. A reader that sees a
    /// stale value misses the cache and falls back to the locked path,
    /// so staleness costs latency, never correctness.
    revision: AtomicU64,
    /// The session's recorder (cloned handle; recorders share state),
    /// so the lock-free render path can count cache hits.
    recorder: Recorder,
    /// Last-touched logical tick (LRU order).
    last_used: AtomicU64,
}

impl SessionSlot {
    fn new(session: ServerSession, frames: FrameCache, tick: u64) -> SessionSlot {
        let recorder = session.analysis.recorder().clone();
        let revision = session.analysis.revision();
        SessionSlot {
            lock: Mutex::new(session),
            waiters: AtomicUsize::new(0),
            frames: Mutex::new(frames),
            revision: AtomicU64::new(revision),
            recorder,
            last_used: AtomicU64::new(tick),
        }
    }

    /// Tries to take the session lock without blocking, recovering
    /// from poisoning.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, ServerSession>> {
        match self.lock.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Blocks for the session lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, ServerSession> {
        relock(&self.lock)
    }

    /// Locks the slot's frame cache (independent of the session lock).
    pub fn frames(&self) -> MutexGuard<'_, FrameCache> {
        relock(&self.frames)
    }

    /// The last revision published for this session. May trail the
    /// authoritative `analysis.revision()` while a command is in
    /// flight; the cached-render fast path tolerates that by design.
    pub fn revision(&self) -> u64 {
        self.revision.load(Ordering::Acquire)
    }

    /// Publishes the session revision for lock-free readers. Called
    /// with the session lock held, after the command has run.
    pub(crate) fn publish_revision(&self, revision: u64) {
        self.revision.store(revision, Ordering::Release);
    }

    /// The session's recorder handle.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Connections currently blocked on [`SessionSlot::lock`] via the
    /// counted path.
    pub(crate) fn waiters(&self) -> &AtomicUsize {
        &self.waiters
    }

    fn touch(&self, tick: u64) {
        self.last_used.store(tick, Ordering::Relaxed);
    }

    fn tick(&self) -> u64 {
        self.last_used.load(Ordering::Relaxed)
    }
}

/// A bounded, concurrency-safe map of named [`ServerSession`]s.
#[derive(Debug)]
pub struct SessionRegistry {
    limits: ServerLimits,
    sessions: RwLock<HashMap<String, Arc<SessionSlot>>>,
    clock: AtomicU64,
}

/// Recovers from a poisoned mutex: a panic in one request handler must
/// not wedge every future request (graceful degradation — the state
/// itself is still consistent, the analysis types have no
/// panic-unsafe invariants).
fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl SessionRegistry {
    /// An empty registry enforcing `limits`.
    pub fn new(limits: ServerLimits) -> SessionRegistry {
        SessionRegistry {
            limits,
            sessions: RwLock::new(HashMap::new()),
            clock: AtomicU64::new(0),
        }
    }

    /// The limits this registry enforces.
    pub fn limits(&self) -> &ServerLimits {
        &self.limits
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<SessionSlot>>> {
        self.sessions.read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<SessionSlot>>> {
        self.sessions.write().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Advances the logical clock and returns the fresh tick. Ticks
    /// are unique, so LRU victims are always unambiguous.
    fn next_tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Creates (or replaces) the session `name`, evicting the least
    /// recently used session if the registry is full. Returns the
    /// evicted sessions as `(name, slot)` pairs, name-sorted and
    /// deterministic for a given command history — the caller owns
    /// the victims' last handles and can checkpoint them before drop.
    pub fn create(&self, name: &str, session: AnalysisSession) -> Vec<(String, Arc<SessionSlot>)> {
        self.create_session(name, ServerSession { analysis: session, live: None })
    }

    /// Like [`create`](SessionRegistry::create), but the caller builds
    /// the whole [`ServerSession`] — the streaming path uses this to
    /// install a session with live state attached atomically.
    pub fn create_session(
        &self,
        name: &str,
        session: ServerSession,
    ) -> Vec<(String, Arc<SessionSlot>)> {
        let tick = self.next_tick();
        let entry = Arc::new(SessionSlot::new(
            session,
            FrameCache::new(self.limits.frame_cache_frames),
            tick,
        ));
        let mut sessions = self.write();
        sessions.insert(name.to_owned(), entry);
        let mut evicted = Vec::new();
        while sessions.len() > self.limits.max_sessions.max(1) {
            // Victim: stalest tick; ticks are unique so this is
            // unambiguous. The session just created has the freshest
            // tick and can never evict itself.
            let victim = sessions
                .iter()
                .min_by_key(|(n, slot)| (slot.tick(), (*n).clone()))
                .map(|(n, _)| n.clone())
                .expect("non-empty registry");
            let slot = sessions.remove(&victim).expect("victim is live");
            evicted.push((victim, slot));
        }
        evicted.sort_by(|a, b| a.0.cmp(&b.0));
        evicted
    }

    /// Fetches a session by name, refreshing its LRU recency. The
    /// returned slot is locked per command by the caller. Takes only
    /// the read half of the registry lock — the hot path under
    /// concurrent sessions.
    pub fn get(&self, name: &str) -> Option<Arc<SessionSlot>> {
        let tick = self.next_tick();
        let found = self.read().get(name).cloned();
        if let Some(slot) = &found {
            slot.touch(tick);
        }
        found
    }

    /// Fetches a session **without** refreshing its LRU recency or
    /// advancing the logical clock. The observability path uses this
    /// so reading a session's stats never changes which session a
    /// later `create` evicts — the observer must not disturb the
    /// observed.
    pub fn peek(&self, name: &str) -> Option<Arc<SessionSlot>> {
        self.read().get(name).cloned()
    }

    /// Drops a session. Returns whether it existed.
    pub fn close(&self, name: &str) -> bool {
        self.write().remove(name).is_some()
    }

    /// Live session names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether no session is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Locks `name`'s session for one command, recovering from
    /// poisoning (a panicking handler must not wedge the session).
    pub fn lock_session<'a>(session: &'a Arc<SessionSlot>) -> MutexGuard<'a, ServerSession> {
        session.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viva_trace::{ContainerKind, TraceBuilder};

    fn tiny_session() -> AnalysisSession {
        let mut b = TraceBuilder::new();
        let power = b.metric("power", "MFlop/s");
        let h = b.new_container(b.root(), "h", ContainerKind::Host).unwrap();
        b.set_variable(0.0, h, power, 10.0).unwrap();
        AnalysisSession::builder(b.finish(1.0)).build()
    }

    fn registry(max_sessions: usize) -> SessionRegistry {
        SessionRegistry::new(ServerLimits { max_sessions, ..ServerLimits::default() })
    }

    #[test]
    fn create_get_close_roundtrip() {
        let r = registry(4);
        assert!(r.is_empty());
        assert!(r.create("a", tiny_session()).is_empty());
        assert!(r.get("a").is_some());
        assert!(r.get("b").is_none());
        assert_eq!(r.names(), vec!["a".to_owned()]);
        assert!(r.close("a"));
        assert!(!r.close("a"));
        assert!(r.is_empty());
    }

    #[test]
    fn lru_eviction_is_by_use_not_by_creation() {
        let r = registry(2);
        r.create("a", tiny_session());
        r.create("b", tiny_session());
        // Touch "a" so "b" becomes the LRU victim.
        assert!(r.get("a").is_some());
        let evicted = r.create("c", tiny_session());
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, "b");
        // The evicted slot is handed back alive for checkpointing.
        assert_eq!(evicted[0].1.lock().analysis.revision(), 0);
        assert_eq!(r.names(), vec!["a".to_owned(), "c".to_owned()]);
        assert!(r.get("b").is_none(), "evicted session is gone");
    }

    #[test]
    fn peek_does_not_refresh_lru_recency() {
        let r = registry(2);
        r.create("a", tiny_session());
        r.create("b", tiny_session());
        assert!(r.peek("a").is_some());
        assert!(r.peek("nope").is_none());
        // Despite the peek, "a" is still the LRU victim.
        assert_eq!(r.create("c", tiny_session())[0].0, "a");
    }

    #[test]
    fn replacing_a_session_does_not_grow_the_registry() {
        let r = registry(2);
        r.create("a", tiny_session());
        r.create("b", tiny_session());
        assert!(r.create("a", tiny_session()).is_empty(), "replace, not evict");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn capacity_one_always_keeps_the_newest() {
        let r = registry(1);
        assert!(r.create("a", tiny_session()).is_empty());
        assert_eq!(r.create("b", tiny_session())[0].0, "a");
        assert_eq!(r.names(), vec!["b".to_owned()]);
    }

    #[test]
    fn slot_try_lock_reports_contention() {
        let r = registry(2);
        r.create("a", tiny_session());
        let slot = r.get("a").unwrap();
        let held = slot.try_lock().unwrap();
        assert!(slot.try_lock().is_none(), "second try_lock must not succeed");
        drop(held);
        assert!(slot.try_lock().is_some());
    }

    #[test]
    fn slot_publishes_revision_and_owns_frame_cache() {
        let r = registry(2);
        r.create("a", tiny_session());
        let slot = r.get("a").unwrap();
        assert_eq!(slot.revision(), 0, "mirror starts at the session revision");
        slot.publish_revision(7);
        assert_eq!(slot.revision(), 7);
        // The frame cache is usable without the session lock held.
        let _held = slot.lock();
        assert!(slot.frames().is_empty());
    }
}
