//! The serving loop: NDJSON over stdio or TCP.
//!
//! A [`Server`] owns a [`SessionRegistry`] and turns request lines
//! into response lines — one in, one out, in order. The same
//! [`Server::handle_line`] drives every transport:
//!
//! * [`Server::serve`] pumps any `BufRead`/`Write` pair — the stdio
//!   single-analyst mode;
//! * [`serve_tcp`] runs an **event-driven readiness loop** over
//!   non-blocking sockets: `workers` shard threads each own a set of
//!   connections with per-connection read/write buffers, so one shard
//!   multiplexes hundreds of connections and one syscall round drains
//!   every complete NDJSON frame a pipelining client has batched. An
//!   idle shard blocks in `poll(2)` on its sockets, the listener and a
//!   per-shard waker (no external dependencies — one `extern "C"`
//!   call into the libc `std` links), so a request is served the
//!   moment it arrives and an idle server uses no CPU.
//!
//! Responses are deterministic: a fresh server given the same command
//! script produces byte-identical output, including the `cached`
//! flags of frame responses (the caches run on logical clocks).
//! The transport never changes a byte — stdio and TCP replay the
//! same golden transcripts.
//!
//! # Resilience
//!
//! The serving layer is **crash-only** (DESIGN.md §14): it prefers a
//! deterministic refusal now over an unbounded queue later, and it can
//! rebuild any session from a checkpoint.
//!
//! * **Admission control** — at most
//!   [`ServerLimits::max_inflight_commands`] commands run at once and
//!   at most [`ServerLimits::max_session_waiters`] connections wait on
//!   one session's lock; beyond either, commands are *shed* with the
//!   typed `overloaded` error (and a `retry_after_ms` hint) before any
//!   work starts.
//! * **Deadlines** — each command class can carry a wall-clock budget
//!   ([`crate::registry::DeadlineBudgets`], opt-in); a breach returns
//!   the typed `deadline_exceeded` error and leaves the session at its
//!   last consistent revision.
//! * **Checkpoint/restore** — `checkpoint` snapshots a session
//!   ([`SessionCheckpoint`]); `restore` rebuilds one with
//!   byte-identical renders. LRU victims and drains are checkpointed
//!   to [`ServerLimits::checkpoint_dir`] when configured.
//! * **Drain** — `shutdown` checkpoints live sessions, refuses new
//!   connections and state-changing commands with `overloaded`, lets
//!   in-flight commands finish, and winds the accept loops down.

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use viva::{AnalysisSession, Camera, GraphView, SessionError, Theme, ViewNode, Viewport};
use viva_agg::AggIndex;
use viva_layout::Vec2;
use viva_obs::{Recorder, SpanGuard, SpanId, Tracer};
use viva_trace::{
    live, write_atomic, ContainerId, JournalConfig, JournalWriter, LiveLine, RecoveryMode,
    ResourceBudget, TraceError, TraceLoader,
};

use crate::checkpoint::{checkpoint_file_name, SessionCheckpoint};
use crate::poll::{self, PollFd, Waker, POLLIN, POLLOUT};
use crate::protocol::{Command, DeltaNode, ErrorKind, Push, Response, SessionStats, StatsBlock};
use crate::registry::{LiveStream, ServerLimits, ServerSession, SessionRegistry, SessionSlot};
use crate::store::{content_hash, hash_token, StoredTrace, TraceStore};

/// Layout iterations run between deadline checks when a `relax` budget
/// is configured. Small enough to bound overshoot, large enough that
/// the `Instant` read stays off the per-step hot path.
const RELAX_DEADLINE_CHUNK: usize = 64;

/// A protocol server over a session registry. Cheap to share:
/// transports hold it behind an [`Arc`].
///
/// With [`Server::with_metrics`] the server carries an enabled
/// [`Recorder`] of its own (per-command counters and latency
/// histograms, registry occupancy) and hands every new session an
/// enabled recorder of *its* own, threaded through the trace loader,
/// aggregation index, layout engine, and frame cache. [`Server::new`]
/// leaves both disabled — the metrics-off hot path is the original
/// uninstrumented code.
#[derive(Debug)]
pub struct Server {
    registry: SessionRegistry,
    /// Named, content-hashed shared traces: `load_trace` registers,
    /// `attach` shares, `restore` re-links by hash.
    store: TraceStore,
    recorder: Recorder,
    /// Commands currently executing (admission-control gauge).
    inflight: AtomicUsize,
    /// Set once by `shutdown`; never cleared. Everything that checks it
    /// degrades to refusal, so a draining server quiesces instead of
    /// wedging.
    draining: AtomicBool,
    /// Per-connection push queues and per-session subscriber lists —
    /// the delivery half of `subscribe`.
    conns: Mutex<ConnTable>,
    /// Total push lines queued across every connection. Lets the
    /// transport tick skip the table lock when nothing is pending —
    /// the common case for servers nobody subscribes to.
    queued_pushes: AtomicUsize,
    /// The waker of every TCP shard serving this server: a drain must
    /// reach shards blocked in their readiness wait.
    wakers: Mutex<Vec<Arc<Waker>>>,
}

/// One registered subscriber of a live session.
#[derive(Debug)]
struct SubEntry {
    /// The subscribed connection.
    conn: u64,
    /// Oldest sequence number queued for this subscriber and not yet
    /// drained by its transport — the resume point if it is shed.
    /// `None` means the subscriber is fully caught up.
    low_seq: Option<u64>,
}

/// Connection-scoped push state, shared by every transport. Lock
/// order: the session lock (when held) is always taken *before* this
/// table's lock, never after.
#[derive(Debug, Default)]
struct ConnTable {
    next_id: u64,
    /// Encoded push lines queued per connection, drained by the
    /// transport between request/response pairs.
    queues: HashMap<u64, Vec<String>>,
    /// The waker of the TCP shard that owns each connection, woken when
    /// another thread queues a push for it. Other transports drain
    /// their queues without being woken and have no entry.
    owners: HashMap<u64, Arc<Waker>>,
    /// Session name → subscribers.
    subs: HashMap<String, Vec<SubEntry>>,
}

/// Sheds one connection's push backlog: its queue is dropped and
/// replaced with one `lagging` line per subscription that had
/// undelivered pushes (now lost), and those subscriptions are removed.
/// `active` names the session whose publish tripped the shed — its
/// subscription always goes, with `seq` as the fallback resume point.
/// Subscriptions with nothing queued lost nothing and stay. Returns
/// `(net change to the queued-push count, subscriptions shed)`.
fn shed_conn(tbl: &mut ConnTable, conn: u64, active: &str, seq: u64) -> (isize, u64) {
    let ConnTable { queues, subs, .. } = tbl;
    let Some(q) = queues.get_mut(&conn) else { return (0, 0) };
    let mut delta = -(q.len() as isize);
    q.clear();
    let mut shed = 0u64;
    // Deterministic lagging order for multi-session subscribers.
    let mut names: Vec<String> = subs.keys().cloned().collect();
    names.sort();
    for name in names {
        let Some(entries) = subs.get_mut(&name) else { continue };
        let Some(pos) = entries.iter().position(|e| e.conn == conn) else { continue };
        let resume_seq = match entries[pos].low_seq {
            Some(low) => low,
            None if name == active => seq,
            None => continue,
        };
        entries.remove(pos);
        q.push(Push::Lagging { session: name, resume_seq }.encode());
        delta += 1;
        shed += 1;
    }
    subs.retain(|_, v| !v.is_empty());
    (delta, shed)
}

/// Projects one view node onto the wire delta row.
fn delta_node(n: &ViewNode) -> DeltaNode {
    DeltaNode {
        container: n.container.index() as u64,
        label: n.label.clone(),
        fill: n.fill_value,
        size: n.size_value,
        members: n.members as u64,
    }
}

/// Diffs two views into the wire delta: nodes whose view row changed
/// (or appeared), plus the container ids that vanished, ascending.
/// `None` as the base means everything is new — the subscribe-time
/// snapshot.
fn diff_views(old: Option<&GraphView>, new: &GraphView) -> (Vec<DeltaNode>, Vec<u64>) {
    let changed = new
        .nodes
        .iter()
        .filter(|n| old.and_then(|o| o.node(n.container)).is_none_or(|prev| prev != *n))
        .map(delta_node)
        .collect();
    let mut removed: Vec<u64> = old
        .map(|o| {
            o.nodes
                .iter()
                .filter(|n| new.node(n.container).is_none())
                .map(|n| n.container.index() as u64)
                .collect()
        })
        .unwrap_or_default();
    removed.sort_unstable();
    (changed, removed)
}

/// Captures a checkpoint of a server session, including the journal
/// link for live streaming sessions — what lets a restore re-attach
/// the journal and replay the suffix the checkpoint has not seen.
fn capture_session(name: &str, s: &ServerSession) -> SessionCheckpoint {
    let mut ckpt = SessionCheckpoint::capture(name, &s.analysis);
    if let Some(live) = &s.live {
        ckpt.journal = live.journal.as_ref().map(|j| (j.id().to_owned(), live.last_seq));
    }
    ckpt
}

/// One command's wall-clock budget. With no budget the deadline never
/// reads the clock and never expires — the default configuration stays
/// wall-clock-free, which is what keeps golden transcripts exact. A
/// zero budget is expired *a priori* (also without a clock read), the
/// deterministic breach tests rely on.
struct Deadline {
    budget_ms: Option<u64>,
    started: Option<Instant>,
}

impl Deadline {
    fn start(budget_ms: Option<u64>) -> Deadline {
        let started = match budget_ms {
            Some(ms) if ms > 0 => Some(Instant::now()),
            _ => None,
        };
        Deadline { budget_ms, started }
    }

    fn expired(&self) -> bool {
        match (self.budget_ms, self.started) {
            (None, _) => false,
            (Some(0), _) => true,
            (Some(ms), Some(t0)) => t0.elapsed() >= Duration::from_millis(ms),
            (Some(_), None) => true,
        }
    }
}

/// RAII admission permit: holds one in-flight slot for the duration of
/// a command, released even when the handler panics.
struct InflightPermit<'a>(&'a AtomicUsize);

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn err(kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error { kind, message: message.into() }
}

/// Maps a session-layer failure onto the wire.
fn session_error(e: SessionError) -> Response {
    let kind = match &e {
        SessionError::UnknownContainer(_) => ErrorKind::UnknownContainer,
        SessionError::HiddenContainer(_) => ErrorKind::HiddenContainer,
        SessionError::UnknownMetric(_) => ErrorKind::UnknownMetric,
        SessionError::InvalidTimeSlice(_) => ErrorKind::InvalidTimeSlice,
        SessionError::NonFinitePosition { .. } => ErrorKind::NonFinitePosition,
    };
    err(kind, e.to_string())
}

/// Builds the viewport for a `render` command. A level-of-detail
/// camera is attached only when at least one camera field was present
/// on the wire — absent fields default to the identity component, and
/// a fully absent camera takes the classic camera-less render path
/// (byte-identical to pre-LoD servers, and keyed separately in the
/// frame cache).
fn render_viewport(
    width: f64,
    height: f64,
    theme: Theme,
    labels: bool,
    zoom: Option<f64>,
    pan_x: Option<f64>,
    pan_y: Option<f64>,
) -> Result<Viewport, Response> {
    let vp = match Viewport::try_new(width, height) {
        Ok(vp) => vp.with_theme(theme).with_labels(labels),
        Err(e) => return Err(err(ErrorKind::BadViewport, e.to_string())),
    };
    if zoom.is_none() && pan_x.is_none() && pan_y.is_none() {
        return Ok(vp);
    }
    match Camera::try_new(zoom.unwrap_or(1.0), pan_x.unwrap_or(0.0), pan_y.unwrap_or(0.0)) {
        Ok(cam) => Ok(vp.with_camera(cam)),
        Err(e) => Err(err(ErrorKind::BadViewport, e.to_string())),
    }
}

/// Resolves a container *name* against the session's trace. Names are
/// the protocol's container handle; ids are an in-process detail.
fn container_id(s: &ServerSession, name: &str) -> Result<ContainerId, Response> {
    s.analysis
        .trace()
        .containers()
        .by_name(name)
        .map(|c| c.id())
        .ok_or_else(|| {
            err(ErrorKind::UnknownContainer, format!("container {name:?} does not exist"))
        })
}

thread_local! {
    /// The shard worker index of the current thread: stamped onto the
    /// root span of every command the thread executes. Stdio serving,
    /// tests, and direct `execute` calls run as shard 0.
    static SHARD: std::cell::Cell<u16> = const { std::cell::Cell::new(0) };
}

fn current_shard() -> u16 {
    SHARD.get()
}

impl Server {
    /// A server with the given limits, no sessions, and metrics off.
    pub fn new(limits: ServerLimits) -> Server {
        Server::with_observability(limits, Recorder::disabled())
    }

    /// A server with observability on: server-scope command metrics,
    /// plus a per-session recorder wired through every layer of each
    /// session created from here on. Metrics never reach a response
    /// except through the `stats` command's deterministic subset, so
    /// transcripts stay byte-identical to a metrics-off server's.
    pub fn with_metrics(limits: ServerLimits) -> Server {
        Server::with_observability(limits, Recorder::enabled())
    }

    /// A server carrying the exact recorder (and through it, tracer)
    /// the caller built — how `viva-server --self-trace` wires a
    /// sampling [`Tracer`] through every layer. Sessions inherit the
    /// tracer (every session recorder is minted with it), so phase
    /// spans from
    /// the loader, index, layout, LoD cut, and SVG encoder all land in
    /// the same per-shard rings as the command roots.
    pub fn with_observability(limits: ServerLimits, recorder: Recorder) -> Server {
        Server {
            registry: SessionRegistry::new(limits),
            store: TraceStore::new(),
            recorder,
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            conns: Mutex::new(ConnTable::default()),
            queued_pushes: AtomicUsize::new(0),
            wakers: Mutex::new(Vec::new()),
        }
    }

    /// The server's span tracer (disabled unless an enabled one was
    /// wired via [`Server::with_observability`]).
    pub fn tracer(&self) -> &Tracer {
        self.recorder.tracer()
    }

    /// The underlying registry (tests and embedding).
    pub fn registry(&self) -> &SessionRegistry {
        &self.registry
    }

    /// The shared-trace store (tests and embedding).
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// The server-scope recorder (disabled unless built by
    /// [`Server::with_metrics`]).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Whether a graceful drain has started ([`Command::Shutdown`]).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Bumps a server-scope counter when metrics are on.
    fn note(&self, counter: &str) {
        if self.recorder.is_enabled() {
            self.recorder.counter(counter).inc();
        }
    }

    /// The typed shed response: `overloaded` + back-off hint. Counted
    /// under `server.shed`; the work was never started.
    fn shed(&self, message: impl Into<String>) -> Response {
        self.note("server.shed");
        err(
            ErrorKind::Overloaded {
                retry_after_ms: self.registry.limits().overload_retry_after_ms,
            },
            message,
        )
    }

    /// The typed deadline-breach response. Counted under
    /// `server.deadline_exceeded`.
    fn deadline_exceeded(&self, what: &str, detail: &str) -> Response {
        self.note("server.deadline_exceeded");
        if self.recorder.is_enabled() {
            self.recorder.event("server.deadline_exceeded", what);
        }
        err(ErrorKind::DeadlineExceeded, format!("{what} exceeded its deadline budget: {detail}"))
    }

    /// The global admission gate: reserves one in-flight slot or sheds.
    fn admit(&self) -> Result<InflightPermit<'_>, Response> {
        let max = self.registry.limits().max_inflight_commands;
        let prev = self.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= max {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(self.shed(format!(
                "{prev} commands already in flight (limit {max}); retry later"
            )));
        }
        Ok(InflightPermit(&self.inflight))
    }

    /// The per-session admission gate: takes the session lock, but
    /// refuses to become more than the `max_session_waiters`-th waiter
    /// — a convoy behind one slow command on a hot session must not
    /// absorb every worker thread.
    fn lock_admitted<'a>(
        &self,
        slot: &'a Arc<SessionSlot>,
    ) -> Result<MutexGuard<'a, ServerSession>, Response> {
        if let Some(g) = slot.try_lock() {
            return Ok(g);
        }
        let max = self.registry.limits().max_session_waiters;
        let prev = slot.waiters().fetch_add(1, Ordering::SeqCst);
        if prev >= max {
            slot.waiters().fetch_sub(1, Ordering::SeqCst);
            return Err(self.shed(format!(
                "session busy with {prev} commands already waiting (limit {max}); retry later"
            )));
        }
        let g = slot.lock();
        slot.waiters().fetch_sub(1, Ordering::SeqCst);
        Ok(g)
    }

    /// Locks the connection table, recovering from poisoning.
    fn conns(&self) -> MutexGuard<'_, ConnTable> {
        self.conns.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Applies a net change to the queued-push gauge the transports
    /// poll before taking the table lock.
    fn adjust_queued(&self, delta: isize) {
        match delta.cmp(&0) {
            std::cmp::Ordering::Greater => {
                self.queued_pushes.fetch_add(delta as usize, Ordering::Relaxed);
            }
            std::cmp::Ordering::Less => {
                self.queued_pushes.fetch_sub(delta.unsigned_abs(), Ordering::Relaxed);
            }
            std::cmp::Ordering::Equal => {}
        }
    }

    /// Publishes the streaming observability pair: the shed counter
    /// and the deepest subscriber queue seen by this publish.
    fn push_metrics(&self, shed: u64, depth: usize) {
        if !self.recorder.is_enabled() {
            return;
        }
        if shed > 0 {
            self.recorder.counter("server.subscriber_sheds").add(shed);
        }
        self.recorder.gauge("server.subscriber_queue").set(depth as f64);
    }

    /// Registers a transport connection for push delivery, returning
    /// its id. Every transport that can carry pushes calls this once
    /// per connection, pairs request lines with it through
    /// [`Server::handle_line_on`], drains [`Server::take_pushes`], and
    /// calls [`Server::close_conn`] when the connection ends.
    pub fn open_conn(&self) -> u64 {
        self.open_conn_on(None)
    }

    /// [`open_conn`](Self::open_conn) for a connection whose transport
    /// blocks in a readiness wait: `waker` interrupts it when a push
    /// is queued from another thread.
    fn open_conn_on(&self, waker: Option<&Arc<Waker>>) -> u64 {
        let mut tbl = self.conns();
        tbl.next_id += 1;
        let id = tbl.next_id;
        tbl.queues.insert(id, Vec::new());
        if let Some(w) = waker {
            tbl.owners.insert(id, Arc::clone(w));
        }
        id
    }

    /// Unregisters a connection: its queue and subscriptions go with
    /// it. Idempotent.
    pub fn close_conn(&self, conn: u64) {
        let mut tbl = self.conns();
        let dropped = tbl.queues.remove(&conn).map_or(0, |q| q.len());
        tbl.owners.remove(&conn);
        self.adjust_queued(-(dropped as isize));
        for entries in tbl.subs.values_mut() {
            entries.retain(|e| e.conn != conn);
        }
        tbl.subs.retain(|_, v| !v.is_empty());
    }

    /// Drains the push lines owed to `conn` (encoded, no trailing
    /// newline). Transports write them after the response to the
    /// command currently in flight — pushes interleave *between*
    /// request/response pairs, never inside one.
    pub fn take_pushes(&self, conn: u64) -> Vec<String> {
        if self.queued_pushes.load(Ordering::Relaxed) == 0 {
            return Vec::new();
        }
        let mut tbl = self.conns();
        let Some(q) = tbl.queues.get_mut(&conn) else { return Vec::new() };
        let drained = std::mem::take(q);
        if drained.is_empty() {
            return drained;
        }
        self.adjust_queued(-(drained.len() as isize));
        // The subscriber is caught up: its next undelivered push (if
        // it is ever shed) starts from whatever gets queued next.
        for entries in tbl.subs.values_mut() {
            for e in entries.iter_mut().filter(|e| e.conn == conn) {
                e.low_seq = None;
            }
        }
        drained
    }

    /// Queues one push line on every subscriber of `session`, shedding
    /// subscribers whose queues are full — an append never blocks on
    /// (or waits for) a slow subscriber.
    fn enqueue_push(&self, session: &str, seq: u64, line: &str) {
        let cap = self.registry.limits().subscriber_queue.max(1);
        let mut tbl = self.conns();
        let mut delta = 0isize;
        let mut shed_conns: Vec<u64> = Vec::new();
        let mut depth = 0usize;
        let mut wake: Vec<Arc<Waker>> = Vec::new();
        {
            let ConnTable { queues, subs, owners, .. } = &mut *tbl;
            let Some(entries) = subs.get_mut(session) else { return };
            for e in entries.iter_mut() {
                let Some(q) = queues.get_mut(&e.conn) else { continue };
                // Queued or shed, the connection has a line to collect.
                if let Some(w) = owners.get(&e.conn) {
                    if !wake.iter().any(|x| Arc::ptr_eq(x, w)) {
                        wake.push(Arc::clone(w));
                    }
                }
                if q.len() >= cap {
                    shed_conns.push(e.conn);
                    continue;
                }
                q.push(line.to_owned());
                delta += 1;
                if e.low_seq.is_none() {
                    e.low_seq = Some(seq);
                }
                depth = depth.max(q.len());
            }
        }
        let mut shed = 0u64;
        for conn in shed_conns {
            let (d, n) = shed_conn(&mut tbl, conn, session, seq);
            delta += d;
            shed += n;
        }
        self.adjust_queued(delta);
        drop(tbl);
        // One wake-up per owning shard for the whole broadcast.
        for w in wake {
            w.wake();
        }
        self.push_metrics(shed, depth);
    }

    /// Queues one push line for a single connection (the subscribe-
    /// time snapshot), under the same bound/shed discipline as a
    /// broadcast.
    fn enqueue_push_for(&self, conn: u64, session: &str, seq: u64, line: String) {
        let cap = self.registry.limits().subscriber_queue.max(1);
        let mut tbl = self.conns();
        let mut delta = 0isize;
        let mut shed = 0u64;
        let mut depth = 0usize;
        let full = tbl.queues.get(&conn).is_some_and(|q| q.len() >= cap);
        if full {
            let (d, n) = shed_conn(&mut tbl, conn, session, seq);
            delta += d;
            shed += n;
        } else if let Some(q) = tbl.queues.get_mut(&conn) {
            q.push(line);
            delta += 1;
            depth = q.len();
            if let Some(e) = tbl
                .subs
                .get_mut(session)
                .and_then(|entries| entries.iter_mut().find(|e| e.conn == conn))
            {
                if e.low_seq.is_none() {
                    e.low_seq = Some(seq);
                }
            }
        }
        self.adjust_queued(delta);
        let owner = tbl.owners.get(&conn).cloned();
        drop(tbl);
        if let Some(w) = owner {
            w.wake();
        }
        self.push_metrics(shed, depth);
    }

    /// Wakes every TCP shard out of its readiness wait.
    fn wake_shards(&self) {
        for w in self.wakers.lock().unwrap_or_else(|p| p.into_inner()).iter() {
            w.wake();
        }
    }

    /// Handles one raw request line. Returns `None` for blank lines
    /// (they produce no response), otherwise exactly one encoded
    /// response line (without trailing newline). Connection-free:
    /// `subscribe` through this entry point is refused (there is no
    /// queue to deliver pushes to) — transports use
    /// [`Server::handle_line_on`].
    pub fn handle_line(&self, line: &str) -> Option<String> {
        self.handle_line_on(None, line)
    }

    /// [`Server::handle_line`] on behalf of a registered transport
    /// connection, which is what entitles the line to `subscribe`.
    pub fn handle_line_on(&self, conn: Option<u64>, line: &str) -> Option<String> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return None;
        }
        if trimmed.len() > self.registry.limits().max_line_bytes {
            return Some(
                err(
                    ErrorKind::Protocol,
                    format!(
                        "request line of {} bytes exceeds the {}-byte limit",
                        trimmed.len(),
                        self.registry.limits().max_line_bytes
                    ),
                )
                .encode(),
            );
        }
        // Decode is timed only when tracing is on: the duration becomes
        // the root span's back-dated `frame.decode` child (the root
        // cannot exist yet — its name *is* the decode's output).
        let decode_started = self.recorder.tracer().is_enabled().then(Instant::now);
        let decoded = Command::decode(trimmed);
        let decode_cost = decode_started.map(|t| t.elapsed());
        let encoded = match decoded {
            Ok(cmd) => {
                // Encode while the admission permit is still held:
                // serializing a megabyte frame is real CPU, and work
                // the gate does not cover would overlap admitted
                // commands and erode their latency under overload.
                let (response, permit, root) = self.execute_gated(conn, cmd, decode_cost);
                let encoded = {
                    let _enc = self.recorder.tracer().phase("response.encode");
                    response.encode()
                };
                drop(root);
                drop(permit);
                encoded
            }
            Err(e) => {
                let kind = if e.message.starts_with("unknown command") {
                    ErrorKind::UnknownCommand
                } else if e.message.starts_with("bad theme") {
                    ErrorKind::BadTheme
                } else {
                    ErrorKind::Protocol
                };
                err(kind, e.message).encode()
            }
        };
        Some(encoded)
    }

    /// Executes one decoded command behind the resilience gates:
    /// drain refusal, then global admission, then the per-command
    /// deadline. Per-command counters and latency histograms are
    /// tallied when metrics are on (the span's wall-clock duration
    /// stays in the recorder — it never reaches a response). Shed
    /// commands are counted under `server.shed` only: no work of
    /// theirs ever started.
    pub fn execute(&self, cmd: Command) -> Response {
        self.execute_gated(None, cmd, None).0
    }

    /// [`Server::execute`], but the admission permit (when one was
    /// granted) and the command's root span are returned alive so
    /// [`Server::handle_line`] can keep the gate closed — and the span
    /// tree open — while it encodes the response.
    fn execute_gated(
        &self,
        conn: Option<u64>,
        cmd: Command,
        decode_cost: Option<Duration>,
    ) -> (Response, Option<InflightPermit<'_>>, SpanGuard) {
        if self.is_draining() && !drain_exempt(&cmd) {
            let resp = self.shed(format!(
                "server is draining; command \"{}\" refused",
                cmd.name()
            ));
            return (resp, None, SpanGuard::noop());
        }
        // The causal root: one tree per command, named after the
        // command, annotated with its session, stamped with the shard
        // worker running it. Created before admission so the wait
        // itself is a phase in the tree; the sampling decision happens
        // inside `root`, and an unsampled root makes every descendant
        // free.
        let tracer = self.recorder.tracer();
        let root = if tracer.is_enabled() {
            let root =
                tracer.root(current_shard(), cmd.name(), session_name(&cmd).unwrap_or(""));
            if let Some(d) = decode_cost {
                tracer.phase_completed("frame.decode", d);
            }
            root
        } else {
            SpanGuard::noop()
        };
        // `shutdown` bypasses admission: a drain must be possible on an
        // overloaded server — that is when it is most needed.
        let permit = if matches!(cmd, Command::Shutdown) {
            None
        } else {
            let admitted = {
                let _wait = tracer.phase("admission.wait");
                self.admit()
            };
            match admitted {
                Ok(p) => Some(p),
                Err(resp) => return (resp, None, root),
            }
        };
        let _span = self.recorder.is_enabled().then(|| {
            let name = cmd.name();
            self.recorder.counter(&format!("server.cmd.{name}")).inc();
            self.recorder.span(&format!("server.cmd.{name}.seconds"))
        });
        let deadline = Deadline::start(self.registry.limits().deadlines.budget_for(cmd.class()));
        if deadline.expired() {
            // Only reachable with a zero budget: already out of time
            // before any work (the deterministic breach used by tests).
            return (self.deadline_exceeded(cmd.name(), "the budget is zero"), permit, root);
        }
        (self.dispatch(conn, cmd, &deadline), permit, root)
    }

    fn dispatch(&self, conn: Option<u64>, cmd: Command, deadline: &Deadline) -> Response {
        match cmd {
            Command::Ping => Response::Pong,
            Command::Sessions => Response::SessionList { names: self.registry.names() },
            Command::CloseSession { session } => {
                if self.registry.close(&session) {
                    self.update_occupancy();
                    Response::Closed { session }
                } else {
                    err(ErrorKind::NoSession, format!("session {session:?} does not exist"))
                }
            }
            Command::LoadTrace { session, mode, text, trace } => {
                self.load_trace(session, mode, &text, trace, deadline)
            }
            Command::Attach { session, trace } => self.attach(session, &trace, deadline),
            Command::ListTraces => Response::TraceList { traces: self.store.list() },
            Command::DropTrace { trace } => {
                if self.store.remove(&trace) {
                    Response::TraceDropped { trace }
                } else {
                    err(ErrorKind::NoTrace, format!("trace {trace:?} is not loaded"))
                }
            }
            Command::Stats { session, reset } => self.stats(session, reset),
            Command::Spans { session, limit } => self.spans(session.as_deref(), limit),
            Command::Restore { session, state } => {
                self.restore(session, state.map(|b| *b), deadline)
            }
            Command::Shutdown => self.shutdown(),
            // `append` creates the session on its first event, so it
            // cannot go through the existing-session path unconditionally.
            Command::Append { session, seq, text } => self.append(session, seq, &text),
            cmd => self.with_session(conn, cmd, deadline),
        }
    }

    /// Mirrors registry occupancy into the `server.sessions` gauge.
    fn update_occupancy(&self) {
        if self.recorder.is_enabled() {
            self.recorder.gauge("server.sessions").set(self.registry.len() as f64);
        }
    }

    /// Answers `stats`: the server's deterministic metric subset, plus
    /// one session's when named. Session lookup goes through
    /// [`SessionRegistry::peek`] so observing never perturbs LRU state.
    /// With `reset`, every snapshot is the atomic snapshot-and-zero of
    /// [`Recorder::snapshot_and_reset`] — the response carries the
    /// final pre-reset values, counters and histograms restart at
    /// zero, gauges keep stating what *is*.
    fn stats(&self, session: Option<String>, reset: bool) -> Response {
        let snap = |r: &Recorder| if reset { r.snapshot_and_reset() } else { r.snapshot() };
        let server = Box::new(StatsBlock::from_snapshot(&snap(&self.recorder)));
        let session = match session {
            None => None,
            Some(name) => {
                let Some(handle) = self.registry.peek(&name) else {
                    return err(ErrorKind::NoSession, format!("session {name:?} does not exist"));
                };
                let s = SessionRegistry::lock_session(&handle);
                Some(Box::new(SessionStats {
                    name,
                    revision: s.analysis.revision(),
                    frozen: s.analysis.layout_freeze_reason().map(|r| r.token().to_owned()),
                    stats: StatsBlock::from_snapshot(&snap(s.analysis.recorder())),
                }))
            }
        };
        Response::Stats { sessions: self.registry.len() as u64, server, session }
    }

    /// Answers `spans`: a deterministic subset of recently finished
    /// span trees — the newest `limit` sampled command roots (default
    /// 16; optionally only one session's), each with every descendant
    /// the rings still hold, sorted by `(trace, id)`. Two reads of a
    /// quiet tracer answer identically; wall-clock durations ride
    /// along for profiling but never order anything.
    fn spans(&self, session: Option<&str>, limit: Option<u64>) -> Response {
        let tracer = self.recorder.tracer();
        if !tracer.is_enabled() {
            return err(
                ErrorKind::BadArgument,
                "tracing is off: start the server with an enabled tracer (viva-server \
                 --self-trace) to record spans",
            );
        }
        let (records, dropped) = tracer.finished_spans();
        let limit = limit.unwrap_or(16).max(1) as usize;
        let mut root_traces: Vec<u64> = records
            .iter()
            .filter(|r| r.parent == SpanId::NONE)
            .filter(|r| session.is_none_or(|s| r.detail == s))
            .map(|r| r.trace_id)
            .collect();
        root_traces.sort_unstable();
        let keep: std::collections::HashSet<u64> =
            root_traces.iter().rev().take(limit).copied().collect();
        let mut kept: Vec<_> = records.iter().filter(|r| keep.contains(&r.trace_id)).collect();
        kept.sort_by_key(|r| (r.trace_id, r.id));
        let spans = kept
            .into_iter()
            .map(|r| crate::protocol::SpanNode {
                trace: r.trace_id,
                id: r.id.0,
                parent: r.parent.0,
                name: r.name.to_owned(),
                detail: r.detail.clone(),
                shard: r.shard as u64,
                start_tick: r.start_tick,
                end_tick: r.end_tick,
                duration_ns: r.duration_ns(),
            })
            .collect();
        Response::Spans { dropped, spans }
    }

    /// The per-session recorder handed to every new session: enabled
    /// iff the server itself carries metrics, and always sharing the
    /// server's tracer — a session's deep phases (parse, index build,
    /// layout, LoD, SVG) join the command trees of the server that
    /// drove them.
    fn session_recorder(&self) -> Recorder {
        let recorder = if self.recorder.is_enabled() {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        recorder.with_tracer(self.recorder.tracer().clone())
    }

    fn load_trace(
        &self,
        session: String,
        mode: viva_trace::RecoveryMode,
        text: &str,
        trace_name: Option<String>,
        deadline: &Deadline,
    ) -> Response {
        // A metrics-on server gives each session its own recorder,
        // shared by the loader, index, layout, and frame-cache
        // counters — `stats` reads it back per session.
        let session_recorder = self.session_recorder();
        let loader = TraceLoader::new()
            .mode(mode)
            .budget(self.registry.limits().load_budget)
            .recorder(session_recorder.clone());
        let report = match loader.load_str(text) {
            Ok(report) => report,
            Err(TraceError::BudgetExceeded(breach)) => {
                return err(ErrorKind::BudgetExceeded, breach.to_string())
            }
            Err(e) => return err(ErrorKind::ParseTrace, e.to_string()),
        };
        // Parse and index are paid exactly once, here; the session and
        // every later `attach` share the results through `Arc`s. The
        // trace moves out of the report; its counters stay readable.
        let trace = Arc::new(report.trace);
        let index = Arc::new(AggIndex::build_observed(&trace, &session_recorder));
        let analysis = AnalysisSession::builder(Arc::clone(&trace))
            .shared_index(Arc::clone(&index))
            .recorder(session_recorder)
            .build();
        if deadline.expired() {
            // Checked before the registry insert so a breached load
            // leaves no half-made session behind.
            return self.deadline_exceeded("load_trace", "no session was created");
        }
        let containers = analysis.trace().containers().len() as u64;
        let (start, end) = (analysis.trace().start(), analysis.trace().end());
        // Eviction is deterministic for a given script; the victims'
        // owners find out through a typed `no_session` error on their
        // next command. With a checkpoint directory configured the
        // victims' state survives for `restore`.
        let evicted = self.registry.create(&session, analysis);
        self.checkpoint_evicted(evicted);
        self.update_occupancy();
        // Register into the store (under the explicit name, or the
        // session's) so `attach` and hash re-links can find it.
        let store_name = trace_name.unwrap_or_else(|| session.clone());
        let hash = content_hash(viva_trace::export::to_csv(&trace).as_bytes());
        self.store.insert(
            &store_name,
            StoredTrace {
                trace,
                index: Some(index),
                hash,
                events: report.events as u64,
            },
        );
        Response::Loaded {
            session,
            containers,
            events: report.events as u64,
            dropped: report.dropped as u64,
            quarantined: report.quarantined as u64,
            start,
            end,
            breach: report.breach.map(|b| b.to_string()),
        }
    }

    /// Creates (or replaces) `session` over a stored trace: two `Arc`
    /// clones instead of a parse and an index build. This is what makes
    /// a thousand sessions over one trace cost one trace.
    fn attach(&self, session: String, trace_name: &str, deadline: &Deadline) -> Response {
        let Some(stored) = self.store.get(trace_name) else {
            return err(ErrorKind::NoTrace, format!("trace {trace_name:?} is not loaded"));
        };
        let mut builder = AnalysisSession::builder(Arc::clone(&stored.trace))
            .recorder(self.session_recorder());
        if let Some(index) = &stored.index {
            builder = builder.shared_index(Arc::clone(index));
        }
        let analysis = builder.build();
        if deadline.expired() {
            return self.deadline_exceeded("attach", "no session was created");
        }
        let containers = analysis.trace().containers().len() as u64;
        let (start, end) = (analysis.trace().start(), analysis.trace().end());
        let evicted = self.registry.create(&session, analysis);
        self.checkpoint_evicted(evicted);
        self.update_occupancy();
        self.note("server.attaches");
        Response::Attached {
            session,
            trace: trace_name.to_owned(),
            containers,
            events: stored.events,
            start,
            end,
        }
    }

    /// Rebuilds `session` from an inline checkpoint, or from the
    /// checkpoint directory when none is supplied.
    fn restore(
        &self,
        session: String,
        state: Option<SessionCheckpoint>,
        deadline: &Deadline,
    ) -> Response {
        let ckpt = match state {
            Some(c) => c,
            None => {
                let Some(dir) = &self.registry.limits().checkpoint_dir else {
                    return err(
                        ErrorKind::BadCheckpoint,
                        "no inline state, and the server has no checkpoint directory",
                    );
                };
                let Some(file) = checkpoint_file_name(&session) else {
                    return err(
                        ErrorKind::BadCheckpoint,
                        format!("session name {session:?} cannot name a checkpoint file"),
                    );
                };
                let text = match fs::read_to_string(dir.join(file)) {
                    Ok(t) => t,
                    Err(e) => {
                        return err(
                            ErrorKind::BadCheckpoint,
                            format!("no stored checkpoint for session {session:?}: {e}"),
                        )
                    }
                };
                match SessionCheckpoint::decode(text.trim_end()) {
                    Ok(c) => c,
                    Err(e) => {
                        return err(
                            ErrorKind::BadCheckpoint,
                            format!("stored checkpoint for session {session:?} is unreadable: {e}"),
                        )
                    }
                }
            }
        };
        let session_recorder = self.session_recorder();
        // Prefer re-linking to a stored trace with the same content
        // hash: the restored session then shares the `Arc<Trace>` and
        // index instead of re-parsing the embedded CSV. Only clean
        // checkpoints are eligible (quarantine counters are per-trace
        // state a shared trace cannot carry), and the checkpoint's
        // claimed hash must match its own CSV — a tampered checkpoint
        // must fail the same way on both paths.
        let shared = if ckpt.quarantined.is_empty() && ckpt.ingest_dropped == 0 {
            let found = content_hash(ckpt.trace_csv.as_bytes());
            if hash_token(found) == ckpt.trace_hash {
                self.store.find_by_hash(found)
            } else {
                None
            }
        } else {
            None
        };
        let relinked = shared.and_then(|stored| {
            ckpt.restore_shared(
                Arc::clone(&stored.trace),
                stored.index.clone(),
                session_recorder.clone(),
            )
            .ok()
        });
        let analysis = match relinked {
            Some(a) => {
                self.note("server.restore_relinks");
                a
            }
            None => match ckpt.restore(self.registry.limits().load_budget, session_recorder) {
                Ok(a) => a,
                Err(e) => return err(ErrorKind::BadCheckpoint, e.to_string()),
            },
        };
        if deadline.expired() {
            return self.deadline_exceeded("restore", "no session was created");
        }
        let mut server_session = ServerSession { analysis, live: None };
        // A v3 checkpoint of a live session names its journal: re-link
        // and replay the suffix so streaming picks up where it left
        // off. If the journal is gone or mismatched the session still
        // restores — as a plain batch session — and says why.
        if let Some((journal_id, ckpt_seq)) = &ckpt.journal {
            if let Err(detail) = self.relink_journal(&session, journal_id, *ckpt_seq, &mut server_session)
            {
                self.note("server.journal_relink_misses");
                if self.recorder.is_enabled() {
                    self.recorder.event("server.journal_relink_miss", &format!("{session}: {detail}"));
                }
                server_session.live = None;
            }
        }
        let revision = server_session.analysis.revision();
        let evicted = self.registry.create_session(&session, server_session);
        self.checkpoint_evicted(evicted);
        self.update_occupancy();
        self.note("server.restores");
        Response::Restored { session, revision }
    }

    /// Starts (or re-reports) a graceful drain: checkpoint every live
    /// session, then refuse new work. Idempotent — a second `shutdown`
    /// re-checkpoints and re-answers.
    fn shutdown(&self) -> Response {
        if !self.draining.swap(true, Ordering::SeqCst) {
            self.note("server.drains");
            if self.recorder.is_enabled() {
                self.recorder.event("server.drain", "begin");
            }
        }
        // Blocked shards must see the drain now, not at their next
        // request.
        self.wake_shards();
        let names = self.registry.names();
        let sessions = names.len() as u64;
        let mut checkpointed = 0u64;
        if self.registry.limits().checkpoint_dir.is_some() {
            for name in names {
                let Some(slot) = self.registry.peek(&name) else { continue };
                let ckpt = {
                    let s = slot.lock();
                    capture_session(&name, &s)
                };
                self.note("server.checkpoints");
                if self.persist_checkpoint(&ckpt) {
                    checkpointed += 1;
                }
            }
        }
        Response::ShutdownStarted { sessions, checkpointed }
    }

    /// Checkpoints LRU-eviction victims to the checkpoint directory
    /// (when configured) before their last handle drops.
    fn checkpoint_evicted(&self, evicted: Vec<(String, Arc<SessionSlot>)>) {
        for (name, slot) in evicted {
            self.note("server.evictions");
            if self.registry.limits().checkpoint_dir.is_some() {
                let ckpt = {
                    let s = slot.lock();
                    capture_session(&name, &s)
                };
                self.note("server.checkpoints");
                self.persist_checkpoint(&ckpt);
            }
        }
    }

    /// Writes a checkpoint to the checkpoint directory, atomically: a
    /// crash mid-write leaves the previous checkpoint whole. Returns
    /// whether a file was written; persistence failures are observable
    /// (counter and event) but never fail the command — the inline
    /// checkpoint in the response is still good.
    fn persist_checkpoint(&self, ckpt: &SessionCheckpoint) -> bool {
        let Some(dir) = &self.registry.limits().checkpoint_dir else {
            return false;
        };
        let Some(file) = checkpoint_file_name(&ckpt.session) else {
            if self.recorder.is_enabled() {
                self.recorder.event("server.checkpoint_skipped", &ckpt.session);
            }
            return false;
        };
        let written = fs::create_dir_all(dir)
            .and_then(|()| write_atomic(&dir.join(file), format!("{}\n", ckpt.encode()).as_bytes()))
            .is_ok();
        if !written {
            self.note("server.checkpoint_io_errors");
            if self.recorder.is_enabled() {
                self.recorder.event("server.checkpoint_io_error", &ckpt.session);
            }
        }
        written
    }

    /// Handles `append`: the durable streaming ingest path.
    ///
    /// Ordering contract (at-least-once): validate, **journal**, then
    /// apply, then acknowledge. A crash after the journal write but
    /// before the ack costs the client one resend, which the duplicate
    /// check acknowledges harmlessly — an acked event is never lost,
    /// and recovery replays exactly what the journal holds.
    fn append(&self, name: String, seq: u64, text: &str) -> Response {
        if let Some(handle) = self.registry.get(&name) {
            let mut s = match self.lock_admitted(&handle) {
                Ok(g) => g,
                Err(resp) => return resp,
            };
            let response = self.append_existing(&name, &mut s, seq, text);
            handle.publish_revision(s.analysis.revision());
            return response;
        }
        if seq != 1 {
            return err(
                ErrorKind::NoSession,
                format!("session {name:?} does not exist; a new stream starts at seq 1"),
            );
        }
        self.append_first(name, text)
    }

    /// `append` seq 1 for an unknown session: creates the live
    /// session — and its journal — from the first event text.
    fn append_first(&self, name: String, text: &str) -> Response {
        let session_recorder = self.session_recorder();
        let analysis = self.build_live_analysis(text, &session_recorder);
        let mut journal = match self.create_journal(&name) {
            Ok(j) => j,
            Err(resp) => return resp,
        };
        // Journal before ack: the record is durable before any state
        // exists that could acknowledge it.
        if let Some(j) = &mut journal {
            if let Err(e) = j.append(1, text) {
                return err(ErrorKind::JournalIo, format!("journal append failed: {e}"));
            }
        }
        let live = LiveStream {
            journal,
            last_seq: 1,
            text: text.to_owned(),
            span: live::span_after(text),
            sealed: false,
            last_view: None,
        };
        let revision = analysis.revision();
        let evicted =
            self.registry.create_session(&name, ServerSession { analysis, live: Some(live) });
        self.checkpoint_evicted(evicted);
        self.update_occupancy();
        self.note("server.appends");
        Response::Appended { session: name, seq: 1, revision, duplicate: false }
    }

    /// `append` on an existing session: idempotent by sequence number,
    /// contiguous, journaled before acknowledgement.
    fn append_existing(&self, name: &str, s: &mut ServerSession, seq: u64, text: &str) -> Response {
        {
            let Some(live) = s.live.as_mut() else {
                return err(
                    ErrorKind::NotLive,
                    format!("session {name:?} was not created by append; it cannot stream"),
                );
            };
            if seq == 0 {
                return err(ErrorKind::BadArgument, "sequence numbers start at 1");
            }
            if seq <= live.last_seq {
                // At-least-once delivery: a resend of an acked event
                // is acknowledged again and not re-applied. Checked
                // before the seal so retries of a sealed stream's
                // final events stay idempotent.
                self.note("server.append_duplicates");
                return Response::Appended {
                    session: name.to_owned(),
                    seq,
                    revision: s.analysis.revision(),
                    duplicate: true,
                };
            }
            if live.sealed {
                return err(
                    ErrorKind::SessionSealed,
                    format!("session {name:?} is sealed; the stream has ended"),
                );
            }
            if seq != live.last_seq + 1 {
                let expected = live.last_seq + 1;
                return err(
                    ErrorKind::SeqGap { expected },
                    format!("append skipped ahead: got seq {seq}, expected {expected}"),
                );
            }
            if let Some(j) = &mut live.journal {
                // Covers the write *and* any `sync_every` fsync — the
                // durability cost an append profile must show.
                let _j = self.recorder.tracer().phase("journal.append");
                if let Err(e) = j.append(seq, text) {
                    return err(ErrorKind::JournalIo, format!("journal append failed: {e}"));
                }
            }
        }
        self.apply_live_text(s, text);
        s.live.as_mut().expect("checked live above").last_seq = seq;
        self.note("server.appends");
        let revision = s.analysis.revision();
        self.publish_delta(name, s, seq);
        Response::Appended { session: name.to_owned(), seq, revision, duplicate: false }
    }

    /// Loads live-stream text into a fresh analysis session. Live
    /// content is *defined* as the lenient, unbudgeted load of the
    /// acked texts in sequence order — the rebuild path and crash
    /// recovery agree with the incremental path because all three are
    /// this function (or the classifier that mirrors it line-exactly).
    fn build_live_analysis(&self, text: &str, recorder: &Recorder) -> AnalysisSession {
        let loader = TraceLoader::new()
            .mode(RecoveryMode::Lenient)
            .budget(ResourceBudget::unlimited())
            .recorder(recorder.clone());
        let report = loader
            .load_str(text)
            .expect("a lenient load with an unlimited budget recovers from anything");
        let trace = Arc::new(report.trace);
        let index = Arc::new(AggIndex::build_observed(&trace, recorder));
        AnalysisSession::builder(Arc::clone(&trace))
            .shared_index(index)
            .recorder(recorder.clone())
            .build()
    }

    /// Opens the journal for a new live session, or `None` when the
    /// server has no journal directory. Session names that cannot
    /// safely name a file are refused outright — silently dropping
    /// durability would betray the ack contract.
    fn create_journal(&self, name: &str) -> Result<Option<JournalWriter>, Response> {
        let Some(dir) = &self.registry.limits().journal_dir else { return Ok(None) };
        if checkpoint_file_name(name).is_none() {
            return Err(err(
                ErrorKind::BadArgument,
                format!("session name {name:?} cannot name a journal file"),
            ));
        }
        if let Err(e) = fs::create_dir_all(dir) {
            return Err(err(
                ErrorKind::JournalIo,
                format!("cannot create journal directory {}: {e}", dir.display()),
            ));
        }
        let config = JournalConfig { sync_every: self.registry.limits().journal_sync_every };
        match JournalWriter::create(&dir.join(format!("{name}.journal")), name, config) {
            Ok(w) => Ok(Some(w.with_recorder(self.recorder.clone()))),
            Err(e) => Err(err(ErrorKind::JournalIo, format!("cannot create journal: {e}"))),
        }
    }

    /// Applies one event text to a live session: each line is
    /// classified against the current trace and applied incrementally;
    /// the first structural record (new container, metric, span, ...)
    /// escalates to a rebuild from the accumulated text, which is the
    /// authoritative definition of live content. Extends the
    /// accumulated text first so the rebuild sees the whole stream.
    fn apply_live_text(&self, s: &mut ServerSession, text: &str) {
        {
            let live = s.live.as_mut().expect("live session");
            if !live.text.is_empty() && !live.text.ends_with('\n') {
                live.text.push('\n');
            }
            live.text.push_str(text);
        }
        let mut structural = false;
        for raw in text.lines() {
            let span = s.live.as_ref().expect("live session").span;
            match live::classify(s.analysis.trace(), span, raw) {
                LiveLine::Skip => {}
                LiveLine::Sample { container, metric, t, v } => {
                    if s.analysis.live_apply_sample(container, metric, t, v).is_err() {
                        // `classify` mirrors the loader's checks, so a
                        // failure here is a record the lenient loader
                        // would have dropped too.
                        s.analysis.live_note_dropped();
                    }
                }
                LiveLine::Quarantine { container, metric } => {
                    s.analysis.live_quarantine_sample(container, metric);
                }
                LiveLine::Drop => s.analysis.live_note_dropped(),
                LiveLine::Structural => {
                    structural = true;
                    break;
                }
            }
        }
        if structural {
            self.rebuild_live(s);
        }
    }

    /// Rebuilds a live session from its accumulated text — the
    /// structural-record slow path. The analyst's interaction state
    /// (collapse set, pins, sliders, slice) survives via
    /// [`AnalysisSession::rebase`].
    fn rebuild_live(&self, s: &mut ServerSession) {
        self.note("server.live_rebuilds");
        let recorder = s.analysis.recorder().clone();
        let loader = TraceLoader::new()
            .mode(RecoveryMode::Lenient)
            .budget(ResourceBudget::unlimited())
            .recorder(recorder.clone());
        let live = s.live.as_mut().expect("live session");
        let report = loader
            .load_str(&live.text)
            .expect("a lenient load with an unlimited budget recovers from anything");
        let trace = Arc::new(report.trace);
        let index = Arc::new(AggIndex::build_observed(&trace, &recorder));
        live.span = live::span_after(&live.text);
        s.analysis.rebase(trace, Some(index));
    }

    /// Publishes one applied append to the session's subscribers:
    /// computes the view delta against the stream's last published
    /// view and enqueues it on every subscriber queue. Runs under the
    /// session lock so the delta corresponds to exactly this sequence
    /// number; sessions without subscribers skip the view extraction
    /// entirely (the no-subscriber append fast path).
    fn publish_delta(&self, name: &str, s: &mut ServerSession, seq: u64) {
        {
            let tbl = self.conns();
            if tbl.subs.get(name).is_none_or(|v| v.is_empty()) {
                return;
            }
        }
        let _push = self.recorder.tracer().phase("subscriber.push");
        let view = s.analysis.view();
        let revision = s.analysis.revision();
        let live = s.live.as_mut().expect("publish_delta is only called on live sessions");
        let (changed, removed) = diff_views(live.last_view.as_ref(), &view);
        let push = Push::Delta { session: name.to_owned(), seq, revision, changed, removed };
        live.last_view = Some(view);
        self.enqueue_push(name, seq, &push.encode());
    }

    /// Handles `subscribe` under the session lock, so the catch-up
    /// snapshot corresponds exactly to the stream's `last_seq`.
    fn subscribe(
        &self,
        conn: Option<u64>,
        name: &str,
        s: &mut ServerSession,
        from_seq: Option<u64>,
    ) -> Response {
        let Some(conn) = conn else {
            return err(
                ErrorKind::Protocol,
                "subscribe requires a transport connection that can carry pushes",
            );
        };
        let Some(live) = s.live.as_ref() else {
            return err(
                ErrorKind::NotLive,
                format!("session {name:?} was not created by append; it cannot stream"),
            );
        };
        let last_seq = live.last_seq;
        {
            let mut tbl = self.conns();
            if !tbl.queues.contains_key(&conn) {
                return err(ErrorKind::Protocol, "subscribe on an unregistered connection");
            }
            let entries = tbl.subs.entry(name.to_owned()).or_default();
            if !entries.iter().any(|e| e.conn == conn) {
                entries.push(SubEntry { conn, low_seq: None });
            }
        }
        // Catch-up snapshot: everything at or before `last_seq` the
        // subscriber has not seen is covered by one full-view delta.
        // A subscriber that is already current (`from_seq ==
        // last_seq + 1`) skips it and just receives future deltas.
        let wants_snapshot = from_seq.is_none_or(|f| f <= last_seq);
        let view = s.analysis.view();
        let revision = s.analysis.revision();
        if wants_snapshot {
            let (changed, removed) = diff_views(None, &view);
            let push = Push::Delta {
                session: name.to_owned(),
                seq: last_seq,
                revision,
                changed,
                removed,
            };
            self.enqueue_push_for(conn, name, last_seq, push.encode());
        }
        // Refresh the diff base: if appends ran while nobody was
        // subscribed, the stored view predates them.
        s.live.as_mut().expect("checked live above").last_view = Some(view);
        self.note("server.subscribes");
        Response::Subscribed { session: name.to_owned(), last_seq }
    }

    /// Scans the journal directory and rebuilds a live session from
    /// every journal found — the crash-recovery startup step. Each
    /// journal is recovered (truncating any torn tail), then its
    /// records are replayed through the ordinary live apply path, so a
    /// recovered session is indistinguishable — same revision, same
    /// renders — from one that took the same appends without a crash.
    /// Returns the recovered session names, sorted.
    pub fn recover_journals(&self) -> Vec<String> {
        let Some(dir) = self.registry.limits().journal_dir.clone() else {
            return Vec::new();
        };
        let Ok(entries) = fs::read_dir(&dir) else { return Vec::new() };
        let mut paths: Vec<std::path::PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "journal"))
            .collect();
        paths.sort();
        let config = JournalConfig { sync_every: self.registry.limits().journal_sync_every };
        let mut names = Vec::new();
        for path in paths {
            let (writer, recovered) = match JournalWriter::recover(&path, config) {
                Ok(r) => r,
                Err(e) => {
                    self.note("server.journal_recovery_errors");
                    if self.recorder.is_enabled() {
                        self.recorder
                            .event("server.journal_recovery_error", &format!("{}: {e}", path.display()));
                    }
                    continue;
                }
            };
            self.note("server.journal_recoveries");
            if recovered.truncated_bytes > 0 {
                self.note("journal.recovery_truncations");
            }
            let writer = writer.with_recorder(self.recorder.clone());
            let name = recovered.id.clone();
            let Some(first) = recovered.records.first() else {
                // Header-only journal: a stream that never acked an
                // event has no state to rebuild.
                continue;
            };
            let session_recorder = self.session_recorder();
            let analysis = self.build_live_analysis(&first.text, &session_recorder);
            let mut s = ServerSession {
                analysis,
                live: Some(LiveStream {
                    journal: Some(writer),
                    last_seq: first.seq,
                    text: first.text.clone(),
                    span: live::span_after(&first.text),
                    sealed: false,
                    last_view: None,
                }),
            };
            for rec in &recovered.records[1..] {
                self.apply_live_text(&mut s, &rec.text);
                s.live.as_mut().expect("live").last_seq = rec.seq;
            }
            if recovered.sealed {
                s.live.as_mut().expect("live").sealed = true;
            }
            let evicted = self.registry.create_session(&name, s);
            self.checkpoint_evicted(evicted);
            names.push(name);
        }
        self.update_occupancy();
        names.sort();
        names
    }

    /// Re-attaches a restored session to its journal: recover the
    /// file, replay every record after the checkpoint's `last_seq`
    /// through the ordinary live apply path, and install the live
    /// stream. On any failure the caller restores a plain batch
    /// session instead — the view state is intact, only streaming
    /// continuity is lost.
    fn relink_journal(
        &self,
        session: &str,
        journal_id: &str,
        ckpt_seq: u64,
        s: &mut ServerSession,
    ) -> Result<(), String> {
        let Some(dir) = &self.registry.limits().journal_dir else {
            return Err("the server has no journal directory".into());
        };
        if checkpoint_file_name(session).is_none() {
            return Err(format!("session name {session:?} cannot name a journal file"));
        }
        let path = dir.join(format!("{session}.journal"));
        let config = JournalConfig { sync_every: self.registry.limits().journal_sync_every };
        let (writer, recovered) = JournalWriter::recover(&path, config)
            .map_err(|e| format!("journal recovery failed: {e}"))?;
        if recovered.id != journal_id {
            return Err(format!(
                "journal id {:?} does not match the checkpoint's {journal_id:?}",
                recovered.id
            ));
        }
        if recovered.last_seq() < ckpt_seq {
            return Err(format!(
                "journal ends at seq {} but the checkpoint is at seq {ckpt_seq}",
                recovered.last_seq()
            ));
        }
        let writer = writer.with_recorder(self.recorder.clone());
        s.live = Some(LiveStream {
            journal: Some(writer),
            last_seq: ckpt_seq,
            text: String::new(),
            span: None,
            sealed: recovered.sealed,
            last_view: None,
        });
        // The accumulated text is rebuilt from the journal (the
        // checkpoint carries canonical CSV, not the original event
        // texts): records the checkpoint already covers only extend
        // the text; records after it are applied too.
        {
            let live = s.live.as_mut().expect("just installed");
            for rec in recovered.records.iter().filter(|r| r.seq <= ckpt_seq) {
                if !live.text.is_empty() && !live.text.ends_with('\n') {
                    live.text.push('\n');
                }
                live.text.push_str(&rec.text);
            }
            live.span = live::span_after(&live.text);
        }
        for rec in recovered.records.iter().filter(|r| r.seq > ckpt_seq) {
            self.apply_live_text(s, &rec.text);
            s.live.as_mut().expect("live").last_seq = rec.seq;
        }
        self.note("server.journal_relinks");
        Ok(())
    }

    /// Dispatches the commands that operate on an existing session.
    fn with_session(&self, conn: Option<u64>, cmd: Command, deadline: &Deadline) -> Response {
        let name = match session_name(&cmd) {
            Some(n) => n.to_owned(),
            None => return err(ErrorKind::Protocol, "command carries no session"),
        };
        let Some(handle) = self.registry.get(&name) else {
            return err(ErrorKind::NoSession, format!("session {name:?} does not exist"));
        };
        // Cached-render fast path: answered from the slot's frame
        // cache and revision mirror without ever taking the session
        // lock, so repeat renders on a hot session never queue behind
        // a slow command (and the registry lock was only held for the
        // name lookup above). A stale mirror can only cause a cache
        // miss — the locked path below re-checks authoritatively.
        if let Command::Render { width, height, theme, labels, zoom, pan_x, pan_y, .. } = &cmd {
            if let Ok(viewport) =
                render_viewport(*width, *height, *theme, *labels, *zoom, *pan_x, *pan_y)
            {
                let revision = handle.revision();
                let key = crate::cache::FrameKey::new(revision, &viewport);
                if let Some(svg) = handle.frames().lookup(&key) {
                    if handle.recorder().is_enabled() {
                        handle.recorder().counter("cache.hits").inc();
                    }
                    return Response::Frame { revision, cached: true, svg };
                }
            }
        }
        let mut s = {
            let _wait = self.recorder.tracer().phase("session.lock");
            match self.lock_admitted(&handle) {
                Ok(g) => g,
                Err(resp) => return resp,
            }
        };
        let response = self.session_command(conn, &name, &handle, &mut s, cmd, deadline);
        // Publish the (possibly bumped) revision for lock-free readers
        // while the session lock is still held, so a fast-path reader
        // never sees a mirror *ahead* of the frames the cache holds.
        handle.publish_revision(s.analysis.revision());
        response
    }

    /// One session-scoped command, run under the session lock. `conn`
    /// is the transport connection carrying the command, when there is
    /// one — `subscribe` needs it to know where pushes go.
    fn session_command(
        &self,
        conn: Option<u64>,
        name: &str,
        handle: &Arc<SessionSlot>,
        s: &mut ServerSession,
        cmd: Command,
        deadline: &Deadline,
    ) -> Response {
        match cmd {
            Command::SetTimeSlice { start, end, .. } => {
                match s.analysis.try_set_time_slice(start, end) {
                    Ok(slice) => Response::Slice { start: slice.start(), end: slice.end() },
                    Err(e) => session_error(e),
                }
            }
            Command::Collapse { container, .. } => match container_id(s, &container) {
                Ok(id) => match s.analysis.collapse(id) {
                    Ok(()) => Response::Done { revision: s.analysis.revision() },
                    Err(e) => session_error(e),
                },
                Err(resp) => resp,
            },
            Command::Expand { container, .. } => match container_id(s, &container) {
                Ok(id) => match s.analysis.expand(id) {
                    Ok(()) => Response::Done { revision: s.analysis.revision() },
                    Err(e) => session_error(e),
                },
                Err(resp) => resp,
            },
            Command::CollapseAtDepth { depth, .. } => {
                s.analysis.collapse_at_depth(depth);
                Response::Done { revision: s.analysis.revision() }
            }
            Command::ExpandAll { .. } => {
                s.analysis.expand_all();
                Response::Done { revision: s.analysis.revision() }
            }
            Command::SetForces { repulsion, spring, damping, .. } => {
                let cfg = s.analysis.layout_config_mut();
                if let Some(r) = repulsion {
                    cfg.repulsion = r;
                }
                if let Some(k) = spring {
                    cfg.spring = k;
                }
                if let Some(d) = damping {
                    cfg.damping = d;
                }
                // The slider trust boundary: hostile values are
                // repaired, not rejected, and the effective
                // configuration is echoed back.
                *cfg = cfg.sanitized();
                Response::Forces {
                    repulsion: cfg.repulsion,
                    spring: cfg.spring,
                    damping: cfg.damping,
                }
            }
            Command::SetScaling { group, factor, .. } => {
                if !(factor.is_finite() && factor >= 0.0) {
                    return err(
                        ErrorKind::BadArgument,
                        format!("scaling factor {factor} must be finite and non-negative"),
                    );
                }
                s.analysis.scaling_mut().set_slider(group, factor);
                Response::Done { revision: s.analysis.revision() }
            }
            Command::Drag { container, x, y, .. } => match container_id(s, &container) {
                Ok(id) => match s.analysis.drag(id, Vec2::new(x, y)) {
                    Ok(()) => Response::Done { revision: s.analysis.revision() },
                    Err(e) => session_error(e),
                },
                Err(resp) => resp,
            },
            Command::Release { container, .. } => match container_id(s, &container) {
                Ok(id) => match s.analysis.release(id) {
                    Ok(()) => Response::Done { revision: s.analysis.revision() },
                    Err(e) => session_error(e),
                },
                Err(resp) => resp,
            },
            Command::Relax { steps, .. } => {
                let budget = self.registry.limits().max_relax_steps;
                let want = steps.min(budget) as usize;
                let executed = if self.registry.limits().deadlines.relax_ms.is_some() {
                    // Chunked so the deadline is checked between
                    // batches. A breach abandons the *remaining* steps:
                    // completed chunks are ordinary relax progress and
                    // the session stays at its last consistent
                    // revision. (Chunking bumps the revision once per
                    // chunk instead of once per command, which is why
                    // it only runs when a relax deadline is opted in.)
                    let mut done = 0usize;
                    loop {
                        let left = want - done;
                        if left == 0 {
                            break;
                        }
                        if deadline.expired() {
                            return self.deadline_exceeded(
                                "relax",
                                &format!(
                                    "stopped after {done} of {want} steps; the session is at \
                                     its last consistent revision"
                                ),
                            );
                        }
                        let chunk = left.min(RELAX_DEADLINE_CHUNK);
                        let ran = s.analysis.relax(chunk);
                        done += ran;
                        if ran < chunk {
                            break; // converged or frozen
                        }
                    }
                    done
                } else {
                    s.analysis.relax(want)
                } as u64;
                Response::Relaxed {
                    steps: executed,
                    frozen: s.analysis.layout_freeze_reason().map(|r| r.to_string()),
                }
            }
            Command::Aggregate { metric, group, .. } => match container_id(s, &group) {
                Ok(id) => match s.analysis.aggregate(&metric, id) {
                    Ok(agg) => Response::Aggregated {
                        members: agg.members as u64,
                        integral: agg.integral,
                        mean: agg.summary.mean,
                        min: agg.summary.min,
                        max: agg.summary.max,
                        median: agg.summary.median,
                        quarantined: agg.quarantined,
                        empty: agg.is_empty(),
                    },
                    Err(e) => session_error(e),
                },
                Err(resp) => resp,
            },
            Command::Render { width, height, theme, labels, zoom, pan_x, pan_y, .. } => {
                let viewport = match render_viewport(width, height, theme, labels, zoom, pan_x, pan_y)
                {
                    Ok(vp) => vp,
                    Err(resp) => return resp,
                };
                let revision = s.analysis.revision();
                let key = crate::cache::FrameKey::new(revision, &viewport);
                let obs = s.analysis.recorder().is_enabled().then(|| s.analysis.recorder().clone());
                // Authoritative re-check: the lock-free probe in
                // `with_session` may have missed on a stale revision.
                if let Some(svg) = handle.frames().get(&key) {
                    if let Some(rec) = &obs {
                        rec.counter("cache.hits").inc();
                    }
                    return Response::Frame { revision, cached: true, svg };
                }
                let svg = s.analysis.render(&viewport);
                if deadline.expired() {
                    // Too late to be useful: the frame is abandoned and
                    // stays out of the cache (a cached frame must mean
                    // "served within budget").
                    return self.deadline_exceeded("render", "the frame was abandoned");
                }
                let evicted = {
                    let mut frames = handle.frames();
                    let before = frames.evictions();
                    frames.insert(key, svg.clone());
                    frames.evictions() - before
                };
                if let Some(rec) = &obs {
                    rec.counter("cache.misses").inc();
                    rec.counter("cache.evictions").add(evicted);
                }
                Response::Frame { revision, cached: false, svg }
            }
            Command::Checkpoint { .. } => {
                let ckpt = capture_session(name, s);
                self.note("server.checkpoints");
                self.persist_checkpoint(&ckpt);
                Response::Checkpointed { session: name.to_owned(), state: Box::new(ckpt) }
            }
            Command::Seal { .. } => {
                let Some(live) = s.live.as_mut() else {
                    return err(
                        ErrorKind::NotLive,
                        format!("session {name:?} was not created by append; it cannot stream"),
                    );
                };
                if !live.sealed {
                    if let Some(j) = &mut live.journal {
                        if let Err(e) = j.seal() {
                            return err(ErrorKind::JournalIo, format!("journal seal failed: {e}"));
                        }
                    }
                    live.sealed = true;
                    self.note("server.seals");
                }
                // Idempotent: re-sealing re-answers with the same
                // final sequence number.
                Response::Sealed { session: name.to_owned(), last_seq: live.last_seq }
            }
            Command::Subscribe { from_seq, .. } => self.subscribe(conn, name, s, from_seq),
            // Session-free commands — and `append`, which must work
            // before the session exists — are handled by `dispatch`.
            Command::Ping
            | Command::Sessions
            | Command::CloseSession { .. }
            | Command::LoadTrace { .. }
            | Command::Attach { .. }
            | Command::ListTraces
            | Command::DropTrace { .. }
            | Command::Stats { .. }
            | Command::Spans { .. }
            | Command::Restore { .. }
            | Command::Append { .. }
            | Command::Shutdown => unreachable!("handled by dispatch"),
        }
    }

    /// Pumps `reader` to `writer`: one response line per request line,
    /// until EOF. I/O errors end the loop (the connection is gone);
    /// content never does. Two hardening behaviours:
    ///
    /// * a **torn frame** — bytes that end without a newline (a client
    ///   that died mid-command, or trickled half a frame until the
    ///   read timeout) — is *never* executed; the connection ends and
    ///   the fragment is dropped (`server.torn_frames`);
    /// * once a **drain** starts, the loop finishes the in-flight
    ///   command, writes its response, and ends the connection.
    pub fn serve<R: BufRead, W: Write>(&self, reader: R, writer: W) -> io::Result<()> {
        let conn = self.open_conn();
        let result = self.serve_conn(conn, reader, writer);
        self.close_conn(conn);
        result
    }

    /// [`serve`](Self::serve) on an already-registered connection —
    /// the caller owns `open_conn`/`close_conn`. Queued pushes
    /// (subscription deltas, lagging notices) drain after each
    /// response, so within one connection a push never lands between a
    /// request and its response.
    fn serve_conn<R: BufRead, W: Write>(
        &self,
        conn: u64,
        mut reader: R,
        mut writer: W,
    ) -> io::Result<()> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = match reader.read_line(&mut line) {
                Ok(n) => n,
                Err(e) => {
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
                        // The read timeout fired: a slow-loris peer (or
                        // a stalled one) loses its connection, not a
                        // worker thread.
                        self.note("server.io_timeouts");
                    }
                    return Err(e);
                }
            };
            if n == 0 {
                return Ok(()); // clean EOF between frames
            }
            if !line.ends_with('\n') {
                self.note("server.torn_frames");
                if self.recorder.is_enabled() {
                    self.recorder.event("server.torn_frame", "dropped");
                }
                return Ok(());
            }
            if let Some(response) = self.handle_line_on(Some(conn), &line) {
                writer.write_all(response.as_bytes())?;
                writer.write_all(b"\n")?;
            }
            for push in self.take_pushes(conn) {
                writer.write_all(push.as_bytes())?;
                writer.write_all(b"\n")?;
            }
            writer.flush()?;
            if self.is_draining() {
                return Ok(());
            }
        }
    }

    /// Serves a single analyst over stdin/stdout until EOF.
    pub fn serve_stdio(&self) -> io::Result<()> {
        let stdin = io::stdin();
        let stdout = io::stdout();
        self.serve(stdin.lock(), stdout.lock())
    }
}

/// The session name a command addresses, if any.
fn session_name(cmd: &Command) -> Option<&str> {
    match cmd {
        Command::Ping
        | Command::Sessions
        | Command::Stats { .. }
        | Command::Spans { .. }
        | Command::ListTraces
        | Command::DropTrace { .. }
        | Command::Shutdown => None,
        Command::CloseSession { session }
        | Command::LoadTrace { session, .. }
        | Command::Attach { session, .. }
        | Command::SetTimeSlice { session, .. }
        | Command::Collapse { session, .. }
        | Command::Expand { session, .. }
        | Command::CollapseAtDepth { session, .. }
        | Command::ExpandAll { session }
        | Command::SetForces { session, .. }
        | Command::SetScaling { session, .. }
        | Command::Drag { session, .. }
        | Command::Release { session, .. }
        | Command::Relax { session, .. }
        | Command::Aggregate { session, .. }
        | Command::Render { session, .. }
        | Command::Checkpoint { session }
        | Command::Restore { session, .. }
        | Command::Append { session, .. }
        | Command::Seal { session }
        | Command::Subscribe { session, .. } => Some(session),
    }
}

/// Commands still answered during a drain: liveness, observability,
/// state export, and the drain itself. Everything else is shed.
fn drain_exempt(cmd: &Command) -> bool {
    matches!(
        cmd,
        Command::Ping
            | Command::Stats { .. }
            | Command::Spans { .. }
            | Command::ListTraces
            | Command::Checkpoint { .. }
            | Command::Shutdown
    )
}

/// Connections one shard accepts per loop tick. Bounded so draining a
/// deep accept backlog cannot starve the shard's live connections.
const ACCEPT_BURST: usize = 64;

/// Bytes a connection's write buffer may hold before the shard stops
/// reading new requests from it — natural pipelining backpressure. A
/// peer that never reads its responses eventually trips the io
/// timeout instead of growing the buffer without bound.
const WRITE_HIGH_WATER: usize = 8 << 20;

/// One client connection owned by a shard: the non-blocking socket
/// plus its buffers and activity clock. Requests accumulate in
/// `read_buf` until a newline completes a frame; responses accumulate
/// in `write_buf` and drain as the socket accepts them — neither side
/// ever blocks the shard.
struct Conn {
    /// The server-side connection id ([`Server::open_conn`]) — the
    /// address subscription pushes are queued under.
    id: u64,
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// How far `read_buf` has been scanned without finding a newline,
    /// so a large frame arriving in many chunks is scanned once.
    scan_from: usize,
    /// Last byte received (io-timeout bookkeeping).
    last_activity: Instant,
    /// Flush what we owe, then close: EOF seen, protocol violation,
    /// or drain.
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream, id: u64) -> Conn {
        Conn {
            id,
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            scan_from: 0,
            last_activity: Instant::now(),
            close_after_flush: false,
        }
    }

    /// Whether the shard reads from this connection: not once it is
    /// closing, and not while the peer owes reads (write high-water
    /// backpressure). Also the connection's `POLLIN` interest.
    fn reading(&self) -> bool {
        !self.close_after_flush && self.write_buf.len() < WRITE_HIGH_WATER
    }
}

/// Serves `listener` with an event-driven readiness loop across
/// `workers` shard threads. Each shard owns a set of connections and
/// multiplexes all of them: per tick it accepts a bounded burst of new
/// sockets, flushes pending responses, drains readable sockets, and
/// executes **every complete NDJSON frame** the reads produced — so a
/// pipelining client gets many commands answered per syscall round.
/// All shards share the server (and thus its sessions and traces):
/// two analysts can connect separately and collaborate in one named
/// session.
///
/// Sockets are non-blocking throughout. When a full tick makes no
/// progress the shard blocks in `poll(2)` until one of its sockets,
/// the shared listener or its waker is ready, or until the nearest
/// io-timeout deadline. The waker is how other threads reach a blocked
/// shard: a subscription push queued for one of its connections, or a
/// drain. Once [`Command::Shutdown`] runs, each shard flushes what it
/// owes, closes its connections, answers any backlog with one
/// `overloaded` line each, and exits. Joining the returned handles is
/// therefore a complete graceful shutdown.
pub fn serve_tcp(
    listener: TcpListener,
    workers: usize,
    server: Arc<Server>,
) -> Vec<JoinHandle<()>> {
    let _ = listener.set_nonblocking(true);
    let listener = Arc::new(listener);
    (0..workers.max(1))
        .map(|i| {
            let listener = Arc::clone(&listener);
            let server = Arc::clone(&server);
            let waker = Arc::new(Waker::new().expect("create shard waker"));
            server.wakers.lock().unwrap_or_else(|p| p.into_inner()).push(Arc::clone(&waker));
            thread::Builder::new()
                .name(format!("viva-server-shard-{i}"))
                .spawn(move || shard_loop(i as u16, &listener, &server, &waker))
                .expect("spawn shard thread")
        })
        .collect()
}

/// One shard's readiness loop: accept, flush, read, execute — and
/// wait for readiness when none of that made progress — until the
/// listener dies or a drain completes.
fn shard_loop(shard: u16, listener: &TcpListener, server: &Server, waker: &Arc<Waker>) {
    // Root spans of commands this worker executes carry its index.
    SHARD.set(shard);
    waker.claim();
    let io_timeout = server
        .registry()
        .limits()
        .io_timeout_ms
        .map(|ms| Duration::from_millis(ms.max(1)));
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        if server.is_draining() {
            drain_shard(server, listener, &mut conns);
            return;
        }
        let mut progressed = false;
        for _ in 0..ACCEPT_BURST {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        conns.push(Conn::new(stream, server.open_conn_on(Some(waker))));
                        progressed = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // The listener is gone; drop the shard's connections.
                Err(_) => {
                    for conn in conns {
                        server.close_conn(conn.id);
                    }
                    return;
                }
            }
        }
        let mut idx = 0;
        while idx < conns.len() {
            match pump_conn(server, &mut conns[idx], &mut scratch, io_timeout) {
                (true, worked) => {
                    progressed |= worked;
                    idx += 1;
                }
                (false, worked) => {
                    progressed |= worked;
                    server.close_conn(conns[idx].id);
                    conns.swap_remove(idx);
                }
            }
            if server.is_draining() {
                break; // handled at the top of the loop
            }
        }
        if !progressed {
            wait_ready(listener, waker, &conns, io_timeout, &mut fds);
        }
    }
}

/// Blocks the shard until it has work: a connection is ready for what
/// [`pump_conn`] does with it next, the listener has a pending
/// connection, the waker fired, or the nearest io-timeout deadline
/// passed. Each interest matches the next tick exactly — `POLLIN` only
/// on connections it reads, `POLLOUT` only where responses are owed —
/// so a wake-up always finds work (or an expired deadline) instead of
/// spinning.
fn wait_ready(
    listener: &TcpListener,
    waker: &Waker,
    conns: &[Conn],
    io_timeout: Option<Duration>,
    fds: &mut Vec<PollFd>,
) {
    fds.clear();
    fds.push(PollFd::new(waker.fd(), POLLIN));
    fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
    let mut deadline: Option<Instant> = None;
    for conn in conns {
        let mut events = 0;
        if conn.reading() {
            events |= POLLIN;
        }
        if !conn.write_buf.is_empty() {
            events |= POLLOUT;
        }
        fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
        if let Some(t) = io_timeout.filter(|_| !conn.close_after_flush) {
            let due = conn.last_activity + t;
            deadline = Some(deadline.map_or(due, |d| d.min(due)));
        }
    }
    let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
    if poll::wait(fds, timeout).is_err() {
        // A failed wait cannot say what is ready: fall back to a short
        // idle tick rather than spin.
        thread::sleep(Duration::from_millis(1));
        return;
    }
    if fds[0].ready() {
        waker.reset();
    }
}

/// Winds one shard down: flush every connection's pending responses
/// (briefly, best-effort — a peer that stopped reading cannot hold
/// the drain hostage), then answer the accept backlog with one typed
/// refusal each.
fn drain_shard(server: &Server, listener: &TcpListener, conns: &mut Vec<Conn>) {
    for mut conn in conns.drain(..) {
        server.close_conn(conn.id);
        let give_up = Instant::now() + Duration::from_millis(250);
        while !conn.write_buf.is_empty() && Instant::now() < give_up {
            match conn.stream.write(&conn.write_buf) {
                Ok(0) => break,
                Ok(n) => {
                    conn.write_buf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let mut fd = [PollFd::new(conn.stream.as_raw_fd(), POLLOUT)];
                    let left = give_up.saturating_duration_since(Instant::now());
                    if poll::wait(&mut fd, Some(left)).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }
    while let Ok((mut stream, _addr)) = listener.accept() {
        // Accepted after the drain began: one typed refusal, then
        // close — the client's retry logic takes it from here.
        let resp = server.shed("server is draining; connection refused");
        let _ = stream.set_nonblocking(false);
        let _ = stream.write_all(format!("{}\n", resp.encode()).as_bytes());
    }
}

/// One tick of one connection. Returns `(keep, made_progress)`.
fn pump_conn(
    server: &Server,
    conn: &mut Conn,
    scratch: &mut [u8],
    io_timeout: Option<Duration>,
) -> (bool, bool) {
    let mut worked = false;
    // Flush first: pipelined clients read while we keep working, and
    // a response from a previous tick must not wait behind new reads.
    if !flush_write(conn, &mut worked) {
        return (false, worked);
    }
    // Read until the socket runs dry — unless the peer owes us reads
    // (write high-water backpressure) or is already closing.
    let mut eof = false;
    if conn.reading() {
        loop {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    eof = true;
                    worked = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&scratch[..n]);
                    conn.last_activity = Instant::now();
                    worked = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return (false, true),
            }
        }
    }
    // Slow-loris defence: a peer that trickles half a frame (or stops
    // reading its responses) loses the connection, not a shard.
    if let Some(t) = io_timeout {
        if !conn.close_after_flush && !eof && conn.last_activity.elapsed() >= t {
            server.note("server.io_timeouts");
            return (false, worked);
        }
    }
    worked |= process_frames(server, conn);
    // Drain queued subscription pushes (deltas published by *other*
    // connections' appends included) into the write buffer — but only
    // below the high-water mark: a subscriber that stops reading keeps
    // its pushes in the bounded queue, overflows it, and is shed with
    // `lagging`. Memory stays bounded and appenders never block.
    if conn.reading() {
        for push in server.take_pushes(conn.id) {
            conn.write_buf.extend_from_slice(push.as_bytes());
            conn.write_buf.push(b'\n');
            worked = true;
        }
    }
    if eof && !conn.close_after_flush {
        if !conn.read_buf.is_empty() {
            // Bytes that end without a newline are a torn frame:
            // never executed, observably dropped.
            server.note("server.torn_frames");
            if server.recorder().is_enabled() {
                server.recorder().event("server.torn_frame", "dropped");
            }
            conn.read_buf.clear();
            conn.scan_from = 0;
        }
        conn.close_after_flush = true;
    }
    if !flush_write(conn, &mut worked) {
        return (false, worked);
    }
    if conn.close_after_flush && conn.write_buf.is_empty() {
        return (false, worked);
    }
    (true, worked)
}

/// Executes every complete frame batched in `read_buf` — the
/// pipelining payoff: one read syscall round, many commands answered.
fn process_frames(server: &Server, conn: &mut Conn) -> bool {
    let mut worked = false;
    let mut consumed = 0usize;
    let mut rest_has_no_newline = false;
    loop {
        let search_from = consumed.max(conn.scan_from);
        let Some(rel) = conn.read_buf[search_from..].iter().position(|&b| b == b'\n') else {
            rest_has_no_newline = true;
            break;
        };
        let end = search_from + rel;
        worked = true;
        match std::str::from_utf8(&conn.read_buf[consumed..=end]) {
            Ok(text) => {
                if let Some(response) = server.handle_line_on(Some(conn.id), text) {
                    conn.write_buf.extend_from_slice(response.as_bytes());
                    conn.write_buf.push(b'\n');
                }
            }
            Err(_) => {
                // Invalid UTF-8 cannot carry a protocol command; end
                // the connection (the blocking transport's read_line
                // failed the same way).
                conn.close_after_flush = true;
                consumed = end + 1;
                break;
            }
        }
        consumed = end + 1;
        if server.is_draining() {
            // The drain response is owed; the rest of the batch is
            // refused by closing, exactly like the blocking loop.
            conn.close_after_flush = true;
            break;
        }
    }
    if consumed > 0 {
        conn.read_buf.drain(..consumed);
    }
    conn.scan_from = if rest_has_no_newline { conn.read_buf.len() } else { 0 };
    // An unterminated fragment larger than any legal frame can never
    // complete: answer the protocol error once and close.
    let max_line = server.registry().limits().max_line_bytes;
    if rest_has_no_newline && !conn.close_after_flush && conn.read_buf.len() > max_line {
        let resp = err(
            ErrorKind::Protocol,
            format!(
                "request line of {} bytes exceeds the {}-byte limit",
                conn.read_buf.len(),
                max_line
            ),
        );
        conn.write_buf.extend_from_slice(resp.encode().as_bytes());
        conn.write_buf.push(b'\n');
        conn.read_buf.clear();
        conn.scan_from = 0;
        conn.close_after_flush = true;
        worked = true;
    }
    worked
}

/// Drains `write_buf` into the socket as far as it will go without
/// blocking. Returns `false` when the connection is dead.
fn flush_write(conn: &mut Conn, worked: &mut bool) -> bool {
    while !conn.write_buf.is_empty() {
        match conn.stream.write(&conn.write_buf) {
            Ok(0) => return false,
            Ok(n) => {
                conn.write_buf.drain(..n);
                *worked = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use viva_trace::{ContainerKind, TraceBuilder};

    /// The canonical two-cluster test trace, as CSV for `load_trace`.
    fn trace_csv() -> String {
        let mut b = TraceBuilder::new();
        let power = b.metric("power", "MFlop/s");
        let used = b.metric("power_used", "MFlop/s");
        let bw = b.metric("bandwidth", "Mbit/s");
        for cn in ["c1", "c2"] {
            let cl = b.new_container(b.root(), cn, ContainerKind::Cluster).unwrap();
            for i in 0..2 {
                let h = b
                    .new_container(cl, format!("{cn}-h{i}"), ContainerKind::Host)
                    .unwrap();
                b.set_variable(0.0, h, power, 100.0).unwrap();
                b.set_variable(0.0, h, used, 60.0).unwrap();
            }
        }
        let bb = b.new_container(b.root(), "bb", ContainerKind::Link).unwrap();
        b.set_variable(0.0, bb, bw, 1000.0).unwrap();
        viva_trace::export::to_csv(&b.finish(10.0))
    }

    fn server() -> Server {
        Server::new(ServerLimits::default())
    }

    fn load(s: &Server, session: &str) {
        let r = s.execute(Command::LoadTrace {
            session: session.into(),
            mode: viva_trace::RecoveryMode::Strict,
            text: trace_csv(),
            trace: None,
        });
        assert!(matches!(r, Response::Loaded { .. }), "{r:?}");
    }

    #[test]
    fn full_interactive_loop_over_the_protocol() {
        let s = server();
        load(&s, "a");
        // Slice (clamped to the trace extent).
        let r = s.execute(Command::SetTimeSlice { session: "a".into(), start: 2.0, end: 99.0 });
        assert_eq!(r, Response::Slice { start: 2.0, end: 10.0 });
        // Collapse + aggregate.
        let r = s.execute(Command::Collapse { session: "a".into(), container: "c1".into() });
        assert!(matches!(r, Response::Done { .. }));
        let r = s.execute(Command::Aggregate {
            session: "a".into(),
            metric: "power_used".into(),
            group: "c1".into(),
        });
        match r {
            Response::Aggregated { members, integral, empty, .. } => {
                assert_eq!(members, 2);
                assert_eq!(integral, 2.0 * 60.0 * 8.0);
                assert!(!empty);
            }
            other => panic!("{other:?}"),
        }
        // Sliders sanitize.
        let r = s.execute(Command::SetForces {
            session: "a".into(),
            repulsion: Some(f64::NAN),
            spring: Some(-5.0),
            damping: Some(7.0),
        });
        assert_eq!(r, Response::Forces { repulsion: 100.0, spring: 0.0, damping: 1.0 });
        // Drag visible, drag hidden.
        let r = s.execute(Command::Drag {
            session: "a".into(),
            container: "c1".into(),
            x: 5.0,
            y: 5.0,
        });
        assert!(matches!(r, Response::Done { .. }));
        let r = s.execute(Command::Drag {
            session: "a".into(),
            container: "c1-h0".into(),
            x: 1.0,
            y: 1.0,
        });
        assert!(
            matches!(r, Response::Error { kind: ErrorKind::HiddenContainer, .. }),
            "{r:?}"
        );
        // Relax, then render.
        let r = s.execute(Command::Relax { session: "a".into(), steps: 50 });
        match r {
            Response::Relaxed { steps, frozen } => {
                assert!(steps > 0);
                assert_eq!(frozen, None);
            }
            other => panic!("{other:?}"),
        }
        let r = s.execute(Command::Render {
            session: "a".into(),
            width: 640.0,
            height: 480.0,
            theme: viva::Theme::Dark,
            labels: true,
            zoom: None,
            pan_x: None,
            pan_y: None,
        });
        match r {
            Response::Frame { cached, svg, .. } => {
                assert!(!cached);
                assert!(svg.starts_with("<svg"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn frame_cache_serves_repeat_renders_and_invalidates_on_change() {
        let s = server();
        load(&s, "a");
        let render = |w: f64| {
            s.execute(Command::Render {
                session: "a".into(),
                width: w,
                height: 480.0,
                theme: viva::Theme::Light,
                labels: false,
                zoom: None,
                pan_x: None,
                pan_y: None,
            })
        };
        let (first, second) = (render(640.0), render(640.0));
        match (&first, &second) {
            (
                Response::Frame { cached: c1, svg: s1, revision: r1 },
                Response::Frame { cached: c2, svg: s2, revision: r2 },
            ) => {
                assert!(!c1 && *c2, "second render is a cache hit");
                assert_eq!(s1, s2);
                assert_eq!(r1, r2);
            }
            other => panic!("{other:?}"),
        }
        // A different viewport misses; the original still hits.
        assert!(matches!(render(800.0), Response::Frame { cached: false, .. }));
        assert!(matches!(render(640.0), Response::Frame { cached: true, .. }));
        // A state change invalidates (new revision, fresh render); the
        // session's aggregation cache makes this cheap, not free.
        s.execute(Command::SetForces {
            session: "a".into(),
            repulsion: Some(150.0),
            spring: None,
            damping: None,
        });
        assert!(matches!(render(640.0), Response::Frame { cached: false, .. }));
    }

    fn counter(block: &StatsBlock, name: &str) -> Option<u64> {
        block.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    #[test]
    fn stats_surfaces_command_counts_and_cache_behaviour() {
        let s = Server::with_metrics(ServerLimits::default());
        load(&s, "a");
        let render = |w: f64| {
            s.execute(Command::Render {
                session: "a".into(),
                width: w,
                height: 480.0,
                theme: viva::Theme::Light,
                labels: false,
                zoom: None,
                pan_x: None,
                pan_y: None,
            })
        };
        assert!(matches!(render(640.0), Response::Frame { cached: false, .. }));
        assert!(matches!(render(640.0), Response::Frame { cached: true, .. }));
        // A viewport-only change misses; the original still hits.
        assert!(matches!(render(800.0), Response::Frame { cached: false, .. }));
        assert!(matches!(render(640.0), Response::Frame { cached: true, .. }));
        match s.execute(Command::Stats { session: Some("a".into()), reset: false }) {
            Response::Stats { sessions, server, session } => {
                assert_eq!(sessions, 1);
                assert_eq!(counter(&server, "server.cmd.render"), Some(4));
                assert_eq!(counter(&server, "server.cmd.load_trace"), Some(1));
                assert_eq!(counter(&server, "server.cmd.stats"), Some(1), "counts itself");
                assert_eq!(
                    server.gauges.iter().find(|(n, _)| n == "server.sessions").map(|(_, v)| *v),
                    Some(1.0)
                );
                // Per-command latency histograms carry one sample per
                // completed command (the in-flight stats span is open).
                assert_eq!(
                    server.histograms.iter().find(|(n, _)| n == "server.cmd.render.seconds"),
                    Some(&("server.cmd.render.seconds".to_owned(), 4))
                );
                let sess = session.expect("session stats");
                assert_eq!((sess.name.as_str(), sess.frozen), ("a", None));
                assert_eq!(counter(&sess.stats, "cache.hits"), Some(2));
                assert_eq!(counter(&sess.stats, "cache.misses"), Some(2));
                // The loader reported into the same session recorder.
                assert_eq!(counter(&sess.stats, "trace.loads"), Some(1));
            }
            other => panic!("{other:?}"),
        }
        // Unknown session name is the usual typed error.
        assert!(matches!(
            s.execute(Command::Stats { session: Some("ghost".into()), reset: false }),
            Response::Error { kind: ErrorKind::NoSession, .. }
        ));
        // A metrics-off server answers stats too — with empty blocks.
        let off = server();
        match off.execute(Command::Stats { session: None, reset: false }) {
            Response::Stats { sessions: 0, server, session: None } => {
                assert!(server.counters.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn frame_cache_evictions_surface_in_session_stats() {
        let s = Server::with_metrics(ServerLimits {
            frame_cache_frames: 2,
            ..ServerLimits::default()
        });
        load(&s, "a");
        for w in [100.0, 200.0, 300.0] {
            let r = s.execute(Command::Render {
                session: "a".into(),
                width: w,
                height: 480.0,
                theme: viva::Theme::Light,
                labels: false,
                zoom: None,
                pan_x: None,
                pan_y: None,
            });
            assert!(matches!(r, Response::Frame { cached: false, .. }));
        }
        match s.execute(Command::Stats { session: Some("a".into()), reset: false }) {
            Response::Stats { session: Some(sess), .. } => {
                assert_eq!(counter(&sess.stats, "cache.misses"), Some(3));
                assert_eq!(counter(&sess.stats, "cache.evictions"), Some(1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn metrics_do_not_change_any_response_byte() {
        let script: Vec<Command> = vec![
            Command::LoadTrace {
                session: "a".into(),
                mode: viva_trace::RecoveryMode::Strict,
                text: trace_csv(),
                trace: None,
            },
            Command::SetTimeSlice { session: "a".into(), start: 1.0, end: 9.0 },
            Command::Collapse { session: "a".into(), container: "c1".into() },
            Command::Relax { session: "a".into(), steps: 30 },
            Command::Render {
                session: "a".into(),
                width: 640.0,
                height: 480.0,
                theme: viva::Theme::Dark,
                labels: true,
                zoom: None,
                pan_x: None,
                pan_y: None,
            },
            Command::Render {
                session: "a".into(),
                width: 640.0,
                height: 480.0,
                theme: viva::Theme::Dark,
                labels: true,
                zoom: None,
                pan_x: None,
                pan_y: None,
            },
            Command::Sessions,
        ];
        let plain = server();
        let observed = Server::with_metrics(ServerLimits::default());
        for cmd in script {
            let a = plain.execute(cmd.clone()).encode();
            let b = observed.execute(cmd).encode();
            assert_eq!(a, b, "metrics perturbed a response");
        }
    }

    #[test]
    fn typed_errors_for_every_failure_shape() {
        let s = server();
        // No session yet.
        let r = s.execute(Command::Relax { session: "nope".into(), steps: 1 });
        assert!(matches!(r, Response::Error { kind: ErrorKind::NoSession, .. }));
        load(&s, "a");
        let cases: Vec<(Command, ErrorKind)> = vec![
            (
                Command::Collapse { session: "a".into(), container: "ghost".into() },
                ErrorKind::UnknownContainer,
            ),
            (
                Command::Aggregate {
                    session: "a".into(),
                    metric: "no_such".into(),
                    group: "c1".into(),
                },
                ErrorKind::UnknownMetric,
            ),
            (
                Command::SetTimeSlice { session: "a".into(), start: f64::NAN, end: 1.0 },
                ErrorKind::InvalidTimeSlice,
            ),
            (
                Command::Drag {
                    session: "a".into(),
                    container: "c1-h0".into(),
                    x: f64::INFINITY,
                    y: 0.0,
                },
                ErrorKind::NonFinitePosition,
            ),
            (
                Command::Render {
                    session: "a".into(),
                    width: -1.0,
                    height: 480.0,
                    theme: viva::Theme::Light,
                    labels: false,
                    zoom: None,
                    pan_x: None,
                    pan_y: None,
                },
                ErrorKind::BadViewport,
            ),
            (
                Command::SetScaling {
                    session: "a".into(),
                    group: "power".into(),
                    factor: f64::NAN,
                },
                ErrorKind::BadArgument,
            ),
            (
                Command::CloseSession { session: "ghost".into() },
                ErrorKind::NoSession,
            ),
        ];
        for (cmd, want) in cases {
            match s.execute(cmd.clone()) {
                Response::Error { kind, .. } => assert_eq!(kind, want, "{cmd:?}"),
                other => panic!("{cmd:?} -> {other:?}"),
            }
        }
        // Wire-level failures that never reach `execute` are typed too.
        let bad_theme = s
            .handle_line(r#"{"cmd":"render","session":"a","width":8,"height":6,"theme":"mauve","labels":false}"#)
            .expect("a response");
        assert!(bad_theme.starts_with(r#"{"err":"bad_theme""#), "{bad_theme}");
        // The session survived all of it.
        assert!(matches!(
            s.execute(Command::Relax { session: "a".into(), steps: 1 }),
            Response::Relaxed { .. }
        ));
    }

    #[test]
    fn lenient_upload_of_damaged_trace_degrades() {
        let s = server();
        let text = format!("{}garbage line\nvar,3.0,1,0,NaN\n", trace_csv());
        let r = s.execute(Command::LoadTrace {
            session: "dmg".into(),
            mode: viva_trace::RecoveryMode::Lenient,
            text,
            trace: None,
        });
        match r {
            Response::Loaded { dropped, quarantined, .. } => {
                assert!(dropped >= 2, "garbage + NaN dropped, got {dropped}");
                assert_eq!(quarantined, 1);
            }
            other => panic!("{other:?}"),
        }
        // Strict mode refuses the same upload with a typed error.
        let text = format!("{}garbage line\n", trace_csv());
        let r = s.execute(Command::LoadTrace {
            session: "dmg2".into(),
            mode: viva_trace::RecoveryMode::Strict,
            text,
            trace: None,
        });
        assert!(
            matches!(r, Response::Error { kind: ErrorKind::ParseTrace, .. }),
            "{r:?}"
        );
        assert!(s.registry().get("dmg2").is_none(), "failed load creates no session");
    }

    #[test]
    fn handle_line_one_response_per_request() {
        let s = server();
        assert_eq!(s.handle_line(""), None);
        assert_eq!(s.handle_line("   "), None);
        assert_eq!(s.handle_line(r#"{"cmd":"ping"}"#), Some(r#"{"ok":"pong"}"#.to_owned()));
        let bad = s.handle_line("not json").unwrap();
        assert!(bad.starts_with(r#"{"err":"protocol""#), "{bad}");
        let unknown = s.handle_line(r#"{"cmd":"frobnicate"}"#).unwrap();
        assert!(unknown.starts_with(r#"{"err":"unknown_command""#), "{unknown}");
    }

    #[test]
    fn oversized_request_line_is_rejected_not_processed() {
        let s = Server::new(ServerLimits { max_line_bytes: 64, ..ServerLimits::default() });
        let huge = format!(r#"{{"cmd":"ping","pad":"{}"}}"#, "x".repeat(1000));
        let r = s.handle_line(&huge).unwrap();
        assert!(r.starts_with(r#"{"err":"protocol""#), "{r}");
    }

    #[test]
    fn checkpoint_restore_round_trips_over_the_protocol() {
        let s = server();
        load(&s, "a");
        s.execute(Command::SetTimeSlice { session: "a".into(), start: 1.0, end: 9.0 });
        s.execute(Command::Collapse { session: "a".into(), container: "c1".into() });
        s.execute(Command::Relax { session: "a".into(), steps: 40 });
        s.execute(Command::Drag { session: "a".into(), container: "c1".into(), x: 3.0, y: -2.0 });
        let render = |srv: &Server, session: &str| {
            match srv.execute(Command::Render {
                session: session.into(),
                width: 640.0,
                height: 480.0,
                theme: viva::Theme::Dark,
                labels: true,
                zoom: None,
                pan_x: None,
                pan_y: None,
            }) {
                Response::Frame { svg, revision, .. } => (svg, revision),
                other => panic!("{other:?}"),
            }
        };
        let (live_svg, live_rev) = render(&s, "a");
        let state = match s.execute(Command::Checkpoint { session: "a".into() }) {
            Response::Checkpointed { session, state } => {
                assert_eq!(session, "a");
                state
            }
            other => panic!("{other:?}"),
        };
        // Restore into a *fresh* server (a process restart, in effect).
        let fresh = server();
        match fresh.execute(Command::Restore { session: "a".into(), state: Some(state.clone()) }) {
            Response::Restored { session, revision } => {
                assert_eq!(session, "a");
                assert_eq!(revision, live_rev);
            }
            other => panic!("{other:?}"),
        }
        let (restored_svg, restored_rev) = render(&fresh, "a");
        assert_eq!(restored_svg, live_svg, "restored render must be byte-identical");
        assert_eq!(restored_rev, live_rev);
        // Fixed point: checkpointing the restored session reproduces
        // the checkpoint byte for byte.
        match fresh.execute(Command::Checkpoint { session: "a".into() }) {
            Response::Checkpointed { state: again, .. } => {
                assert_eq!(again.encode(), state.encode());
            }
            other => panic!("{other:?}"),
        }
        // Checkpointing an unknown session is the usual typed error.
        assert!(matches!(
            s.execute(Command::Checkpoint { session: "ghost".into() }),
            Response::Error { kind: ErrorKind::NoSession, .. }
        ));
        // Restoring garbage is typed, and creates no session.
        let mut broken = (*state).clone();
        broken.version = 99;
        assert!(matches!(
            fresh.execute(Command::Restore { session: "b".into(), state: Some(Box::new(broken)) }),
            Response::Error { kind: ErrorKind::BadCheckpoint, .. }
        ));
        assert!(fresh.registry().get("b").is_none());
    }

    /// Overwriting a stored checkpoint goes through a temporary file
    /// and a rename: afterwards the directory holds exactly the one
    /// complete file, carrying the newer state, and it restores.
    #[test]
    fn persisted_checkpoint_is_replaced_whole() {
        let dir = tmpdir("ckpt_atomic");
        let s = Server::new(ServerLimits {
            checkpoint_dir: Some(dir.clone()),
            ..ServerLimits::default()
        });
        load(&s, "a");
        let capture = |srv: &Server| {
            let slot = srv.registry().get("a").expect("session a");
            let session = slot.lock();
            capture_session("a", &session)
        };
        let first = capture(&s);
        assert!(s.persist_checkpoint(&first));
        s.execute(Command::SetTimeSlice { session: "a".into(), start: 2.0, end: 6.0 });
        let second = capture(&s);
        assert_ne!(first.encode(), second.encode(), "the overwrite carries new state");
        assert!(s.persist_checkpoint(&second));

        let file = checkpoint_file_name("a").expect("plain name");
        let mut entries: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        entries.sort();
        assert_eq!(entries, vec![file.clone()], "one file, no temporary leftovers");
        let stored = fs::read_to_string(dir.join(&file)).unwrap();
        assert_eq!(stored, format!("{}\n", second.encode()));

        let fresh = Server::new(ServerLimits {
            checkpoint_dir: Some(dir.clone()),
            ..ServerLimits::default()
        });
        match fresh.execute(Command::Restore { session: "a".into(), state: None }) {
            Response::Restored { revision, .. } => {
                assert_eq!(revision, s.registry().get("a").unwrap().lock().analysis.revision());
            }
            other => panic!("{other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_control_sheds_deterministically() {
        let s = Server::new(ServerLimits {
            max_inflight_commands: 0,
            overload_retry_after_ms: 25,
            ..ServerLimits::default()
        });
        match s.execute(Command::Ping) {
            Response::Error { kind: ErrorKind::Overloaded { retry_after_ms }, .. } => {
                assert_eq!(retry_after_ms, 25, "the configured hint rides the error");
            }
            other => panic!("{other:?}"),
        }
        // `shutdown` bypasses admission: draining an overloaded server
        // must always be possible.
        assert!(matches!(
            s.execute(Command::Shutdown),
            Response::ShutdownStarted { sessions: 0, checkpointed: 0 }
        ));
    }

    #[test]
    fn zero_deadline_budget_breaches_deterministically() {
        let s = Server::new(ServerLimits {
            deadlines: crate::registry::DeadlineBudgets {
                relax_ms: Some(0),
                ..Default::default()
            },
            ..ServerLimits::default()
        });
        load(&s, "a");
        let r = s.execute(Command::Relax { session: "a".into(), steps: 100 });
        assert!(
            matches!(r, Response::Error { kind: ErrorKind::DeadlineExceeded, .. }),
            "{r:?}"
        );
        // Other classes have no budget and are untouched; the session
        // is still at its last consistent revision.
        assert!(matches!(
            s.execute(Command::SetTimeSlice { session: "a".into(), start: 1.0, end: 5.0 }),
            Response::Slice { .. }
        ));
    }

    #[test]
    fn drain_refuses_new_state_changes_but_answers_observability() {
        let s = server();
        load(&s, "a");
        assert!(!s.is_draining());
        match s.execute(Command::Shutdown) {
            Response::ShutdownStarted { sessions, checkpointed } => {
                assert_eq!(sessions, 1);
                assert_eq!(checkpointed, 0, "no checkpoint dir configured");
            }
            other => panic!("{other:?}"),
        }
        assert!(s.is_draining());
        // State changes are shed…
        assert!(matches!(
            s.execute(Command::Relax { session: "a".into(), steps: 1 }),
            Response::Error { kind: ErrorKind::Overloaded { .. }, .. }
        ));
        assert!(matches!(
            s.execute(Command::LoadTrace {
                session: "b".into(),
                mode: viva_trace::RecoveryMode::Strict,
                text: trace_csv(),
                trace: None,
            }),
            Response::Error { kind: ErrorKind::Overloaded { .. }, .. }
        ));
        // …while liveness, stats, and state export still answer.
        assert!(matches!(s.execute(Command::Ping), Response::Pong));
        assert!(matches!(s.execute(Command::Stats { session: None, reset: false }), Response::Stats { .. }));
        assert!(matches!(
            s.execute(Command::Checkpoint { session: "a".into() }),
            Response::Checkpointed { .. }
        ));
        // Shutdown is idempotent.
        assert!(matches!(s.execute(Command::Shutdown), Response::ShutdownStarted { .. }));
    }

    #[test]
    fn tcp_round_trip_with_worker_pool() {
        use std::io::{BufRead, BufReader, Write};
        let server = Arc::new(server());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _workers = serve_tcp(listener, 2, Arc::clone(&server));
        // Two concurrent connections, each its own session.
        let clients: Vec<_> = (0..2)
            .map(|i| {
                let csv = trace_csv();
                thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut send = |cmd: &Command| {
                        stream
                            .write_all(format!("{}\n", cmd.encode()).as_bytes())
                            .unwrap();
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        Response::decode(line.trim_end()).unwrap()
                    };
                    let session = format!("tcp-{i}");
                    let r = send(&Command::LoadTrace {
                        session: session.clone(),
                        mode: viva_trace::RecoveryMode::Strict,
                        text: csv,
                        trace: None,
                    });
                    assert!(matches!(r, Response::Loaded { .. }));
                    let r = send(&Command::Render {
                        session,
                        width: 320.0,
                        height: 240.0,
                        theme: viva::Theme::Light,
                        labels: false,
                        zoom: None,
                        pan_x: None,
                        pan_y: None,
                    });
                    assert!(matches!(r, Response::Frame { .. }));
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(server.registry().len(), 2);
    }

    #[test]
    fn attach_shares_one_trace_among_sessions() {
        let s = Server::new(ServerLimits { max_sessions: 64, ..ServerLimits::default() });
        let (loaded_containers, loaded_events) = match s.execute(Command::LoadTrace {
            session: "a".into(),
            mode: viva_trace::RecoveryMode::Strict,
            text: trace_csv(),
            trace: Some("shared".into()),
        }) {
            Response::Loaded { containers, events, .. } => (containers, events),
            other => panic!("{other:?}"),
        };
        for i in 0..10 {
            let r = s.execute(Command::Attach {
                session: format!("att-{i}"),
                trace: "shared".into(),
            });
            match r {
                Response::Attached { trace, containers, events, .. } => {
                    assert_eq!(trace, "shared");
                    assert_eq!(containers, loaded_containers);
                    assert_eq!(events, loaded_events);
                }
                other => panic!("{other:?}"),
            }
        }
        // The store sees one trace shared by eleven sessions (loader's
        // plus ten attached): one Arc strong count per session, plus
        // the store's own reference.
        match s.execute(Command::ListTraces) {
            Response::TraceList { traces } => {
                assert_eq!(traces.len(), 1);
                assert_eq!(traces[0].name, "shared");
                assert_eq!(traces[0].sessions, 11);
            }
            other => panic!("{other:?}"),
        }
        // Attached sessions truly share: same allocation, not a copy.
        let a = s.registry().get("a").unwrap().lock().analysis.shared_trace();
        let b = s.registry().get("att-0").unwrap().lock().analysis.shared_trace();
        assert!(Arc::ptr_eq(&a, &b));
        // The shared index was built once and is shared too.
        let ia = s.registry().get("a").unwrap().lock().analysis.shared_index().unwrap();
        let ib = s.registry().get("att-9").unwrap().lock().analysis.shared_index().unwrap();
        assert!(Arc::ptr_eq(&ia, &ib));
        // Attached sessions render identically to the loaded one.
        let render = |session: &str| match s.execute(Command::Render {
            session: session.into(),
            width: 320.0,
            height: 240.0,
            theme: viva::Theme::Light,
            labels: false,
            zoom: None,
            pan_x: None,
            pan_y: None,
        }) {
            Response::Frame { svg, .. } => svg,
            other => panic!("{other:?}"),
        };
        assert_eq!(render("a"), render("att-5"));
        // Dropping the trace stops new attaches; live sessions keep
        // working.
        assert!(matches!(
            s.execute(Command::DropTrace { trace: "shared".into() }),
            Response::TraceDropped { .. }
        ));
        assert!(matches!(
            s.execute(Command::Attach { session: "late".into(), trace: "shared".into() }),
            Response::Error { kind: ErrorKind::NoTrace, .. }
        ));
        assert!(matches!(
            s.execute(Command::DropTrace { trace: "shared".into() }),
            Response::Error { kind: ErrorKind::NoTrace, .. }
        ));
        assert!(matches!(
            s.execute(Command::Relax { session: "att-3".into(), steps: 5 }),
            Response::Relaxed { .. }
        ));
    }

    #[test]
    fn attach_to_missing_trace_is_typed() {
        let s = server();
        assert!(matches!(
            s.execute(Command::Attach { session: "x".into(), trace: "ghost".into() }),
            Response::Error { kind: ErrorKind::NoTrace, .. }
        ));
        assert!(s.registry().is_empty());
    }

    #[test]
    fn restore_relinks_to_stored_trace_by_content_hash() {
        let s = server();
        let r = s.execute(Command::LoadTrace {
            session: "a".into(),
            mode: viva_trace::RecoveryMode::Strict,
            text: trace_csv(),
            trace: Some("shared".into()),
        });
        assert!(matches!(r, Response::Loaded { .. }));
        s.execute(Command::Collapse { session: "a".into(), container: "c1".into() });
        s.execute(Command::Relax { session: "a".into(), steps: 25 });
        let state = match s.execute(Command::Checkpoint { session: "a".into() }) {
            Response::Checkpointed { state, .. } => state,
            other => panic!("{other:?}"),
        };
        // Restore into a *different* session on the same server: the
        // checkpoint's content hash matches the stored trace, so the
        // restored session shares it instead of re-parsing.
        assert!(matches!(
            s.execute(Command::Restore { session: "b".into(), state: Some(state) }),
            Response::Restored { .. }
        ));
        let restored = s.registry().get("b").unwrap().lock().analysis.shared_trace();
        let stored = s.store().get("shared").unwrap().trace;
        assert!(Arc::ptr_eq(&restored, &stored), "restore re-linked to the shared trace");
        // And it renders byte-identically to the original session.
        let render = |session: &str| match s.execute(Command::Render {
            session: session.into(),
            width: 640.0,
            height: 480.0,
            theme: viva::Theme::Dark,
            labels: true,
            zoom: None,
            pan_x: None,
            pan_y: None,
        }) {
            Response::Frame { svg, .. } => svg,
            other => panic!("{other:?}"),
        };
        assert_eq!(render("a"), render("b"));
    }

    // ---- durable live streaming -------------------------------------

    /// Opening event of every streaming test: span + two hosts + one
    /// metric + one sample.
    const LIVE_BASE: &str = "span,0.0,10.0\ncontainer,1,0,host,h0\ncontainer,2,0,host,h1\n\
                             metric,0,MFlop/s,power\nvar,1.0,1,0,100.0";
    /// Pure-sample events (incremental fast path).
    const LIVE_EV2: &str = "var,2.0,1,0,50.0";
    const LIVE_EV3: &str = "var,3.0,2,0,75.5";
    /// A structural event (forces the rebuild slow path).
    const LIVE_EV4: &str = "container,3,0,host,h2\nvar,4.0,3,0,10.0";

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "viva_server_stream_{tag}_{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn stream_limits(dir: &std::path::Path) -> ServerLimits {
        ServerLimits {
            journal_dir: Some(dir.to_path_buf()),
            journal_sync_every: 1,
            ..ServerLimits::default()
        }
    }

    fn append(s: &Server, session: &str, seq: u64, text: &str) -> Response {
        s.execute(Command::Append { session: session.into(), seq, text: text.into() })
    }

    fn render_svg(s: &Server, session: &str) -> String {
        match s.execute(Command::Render {
            session: session.into(),
            width: 640.0,
            height: 480.0,
            theme: viva::Theme::Light,
            labels: false,
            zoom: None,
            pan_x: None,
            pan_y: None,
        }) {
            Response::Frame { svg, .. } => svg,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn append_round_trip_idempotency_and_gap_detection() {
        let s = server(); // no journal dir: streaming still works, just not durable
        // A stream must start at seq 1.
        assert!(matches!(
            append(&s, "s", 2, LIVE_BASE),
            Response::Error { kind: ErrorKind::NoSession, .. }
        ));
        assert!(matches!(
            append(&s, "s", 1, LIVE_BASE),
            Response::Appended { seq: 1, duplicate: false, .. }
        ));
        let r2 = append(&s, "s", 2, LIVE_EV2);
        let rev2 = match r2 {
            Response::Appended { seq: 2, duplicate: false, revision, .. } => revision,
            other => panic!("{other:?}"),
        };
        // Resend of an acked event: acknowledged again, not re-applied.
        match append(&s, "s", 2, LIVE_EV2) {
            Response::Appended { seq: 2, duplicate: true, revision, .. } => {
                assert_eq!(revision, rev2, "a duplicate does not change the session");
            }
            other => panic!("{other:?}"),
        }
        // Sequence numbers start at 1; skipping ahead is a typed gap
        // that names the expected seq (the client's resume point).
        assert!(matches!(
            append(&s, "s", 0, "x"),
            Response::Error { kind: ErrorKind::BadArgument, .. }
        ));
        match append(&s, "s", 5, LIVE_EV3) {
            Response::Error { kind: ErrorKind::SeqGap { expected }, .. } => {
                assert_eq!(expected, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incremental_appends_match_one_shot_load_of_the_same_text() {
        let s = server();
        // Session "inc" receives the stream event by event (exercising
        // both the sample fast path and the structural rebuild);
        // session "one" gets the identical concatenation as one event.
        for (seq, text) in [(1, LIVE_BASE), (2, LIVE_EV2), (3, LIVE_EV3), (4, LIVE_EV4)] {
            assert!(matches!(
                append(&s, "inc", seq, text),
                Response::Appended { duplicate: false, .. }
            ));
        }
        let all = format!("{LIVE_BASE}\n{LIVE_EV2}\n{LIVE_EV3}\n{LIVE_EV4}");
        assert!(matches!(append(&s, "one", 1, &all), Response::Appended { .. }));
        // Live content is defined as the lenient load of the
        // concatenated texts, so both sessions must hold the same
        // view values (geometry may differ — layout seeding is
        // path-dependent — so compare the data projection).
        let deltas = |name: &str| {
            let handle = s.registry().get(name).unwrap();
            let guard = handle.lock();
            diff_views(None, &guard.analysis.view())
        };
        assert_eq!(deltas("inc"), deltas("one"));
    }

    #[test]
    fn seal_ends_the_stream_idempotently() {
        let s = server();
        append(&s, "s", 1, LIVE_BASE);
        append(&s, "s", 2, LIVE_EV2);
        assert_eq!(
            s.execute(Command::Seal { session: "s".into() }),
            Response::Sealed { session: "s".into(), last_seq: 2 }
        );
        // Sealed: new events are refused, duplicates still ack.
        assert!(matches!(
            append(&s, "s", 3, LIVE_EV3),
            Response::Error { kind: ErrorKind::SessionSealed, .. }
        ));
        assert!(matches!(
            append(&s, "s", 2, LIVE_EV2),
            Response::Appended { duplicate: true, .. }
        ));
        // Re-sealing re-answers identically.
        assert_eq!(
            s.execute(Command::Seal { session: "s".into() }),
            Response::Sealed { session: "s".into(), last_seq: 2 }
        );
    }

    #[test]
    fn streaming_commands_are_typed_errors_on_batch_sessions() {
        let s = server();
        load(&s, "a");
        assert!(matches!(
            append(&s, "a", 1, LIVE_BASE),
            Response::Error { kind: ErrorKind::NotLive, .. }
        ));
        assert!(matches!(
            s.execute(Command::Seal { session: "a".into() }),
            Response::Error { kind: ErrorKind::NotLive, .. }
        ));
        // `subscribe` additionally needs a transport connection that
        // can carry pushes — `execute` has none.
        append(&s, "s", 1, LIVE_BASE);
        assert!(matches!(
            s.execute(Command::Subscribe { session: "s".into(), from_seq: None }),
            Response::Error { kind: ErrorKind::Protocol, .. }
        ));
    }

    #[test]
    fn restart_recovers_journals_into_identical_sessions() {
        let dir = tmpdir("recover");
        let s = Server::new(stream_limits(&dir));
        for (seq, text) in [(1, LIVE_BASE), (2, LIVE_EV2), (3, LIVE_EV3), (4, LIVE_EV4)] {
            assert!(matches!(append(&s, "s", seq, text), Response::Appended { .. }));
        }
        let rev_a = match append(&s, "s", 4, LIVE_EV4) {
            Response::Appended { duplicate: true, revision, .. } => revision,
            other => panic!("{other:?}"),
        };
        let svg_a = render_svg(&s, "s");
        drop(s); // crash: no seal, no checkpoint
        // A fresh server over the same journal directory rebuilds the
        // session — same revision, same bytes on screen.
        let t = Server::new(stream_limits(&dir));
        assert_eq!(t.recover_journals(), vec!["s".to_string()]);
        match append(&t, "s", 4, LIVE_EV4) {
            Response::Appended { duplicate: true, revision, .. } => {
                assert_eq!(revision, rev_a, "recovery replays to the identical revision");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(render_svg(&t, "s"), svg_a, "recovered render is byte-identical");
        // And the stream continues where it left off.
        assert!(matches!(
            append(&t, "s", 5, "var,5.0,1,0,25.0"),
            Response::Appended { seq: 5, duplicate: false, .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_recovers_the_acked_prefix() {
        use std::io::Write as _;
        let dir = tmpdir("torn");
        let s = Server::with_metrics(stream_limits(&dir));
        append(&s, "s", 1, LIVE_BASE);
        append(&s, "s", 2, LIVE_EV2);
        append(&s, "s", 3, LIVE_EV3);
        drop(s);
        // A torn tail: half a record that never finished hitting disk.
        let path = dir.join("s.journal");
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"v1,9,garbage-without-a-news").unwrap();
        drop(f);
        let t = Server::with_metrics(stream_limits(&dir));
        assert_eq!(t.recover_journals(), vec!["s".to_string()]);
        // The acked prefix survives; the torn record was never acked
        // and is physically gone.
        assert!(matches!(
            append(&t, "s", 3, LIVE_EV3),
            Response::Appended { duplicate: true, .. }
        ));
        match append(&t, "s", 5, "x") {
            Response::Error { kind: ErrorKind::SeqGap { expected }, .. } => {
                assert_eq!(expected, 4)
            }
            other => panic!("{other:?}"),
        }
        // The truncation is observable.
        let block = match t.execute(Command::Stats { session: None, reset: false }) {
            Response::Stats { server, .. } => server,
            other => panic!("{other:?}"),
        };
        assert_eq!(counter(&block, "journal.recovery_truncations"), Some(1));
        assert_eq!(counter(&block, "server.journal_recoveries"), Some(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_v3_links_the_journal_and_restore_relinks_it() {
        let dir = tmpdir("ckpt");
        let s = Server::new(stream_limits(&dir));
        append(&s, "s", 1, LIVE_BASE);
        append(&s, "s", 2, LIVE_EV2);
        let state = match s.execute(Command::Checkpoint { session: "s".into() }) {
            Response::Checkpointed { state, .. } => state,
            other => panic!("{other:?}"),
        };
        assert_eq!(state.journal, Some(("s".to_string(), 2)));
        drop(s);
        // Restore on a fresh server with the same journal directory:
        // the session is live again and the stream continues.
        let t = Server::new(stream_limits(&dir));
        assert!(matches!(
            t.execute(Command::Restore { session: "s".into(), state: Some(state.clone()) }),
            Response::Restored { .. }
        ));
        // Double-checkpoint byte fixed point: checkpointing the
        // restored (unchanged) session reproduces the same bytes.
        let state2 = match t.execute(Command::Checkpoint { session: "s".into() }) {
            Response::Checkpointed { state, .. } => state,
            other => panic!("{other:?}"),
        };
        assert_eq!(state.encode(), state2.encode());
        assert!(matches!(
            append(&t, "s", 3, LIVE_EV3),
            Response::Appended { seq: 3, duplicate: false, .. }
        ));
        drop(t);
        // Without the journal directory the restore still succeeds —
        // as a plain batch session that cannot stream.
        let u = Server::new(ServerLimits::default());
        assert!(matches!(
            u.execute(Command::Restore { session: "s".into(), state: Some(state) }),
            Response::Restored { .. }
        ));
        assert!(matches!(
            append(&u, "s", 3, LIVE_EV3),
            Response::Error { kind: ErrorKind::NotLive, .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_after_journal_truncation_replays_the_suffix() {
        let dir = tmpdir("suffix");
        let s = Server::new(stream_limits(&dir));
        append(&s, "s", 1, LIVE_BASE);
        append(&s, "s", 2, LIVE_EV2);
        let state = match s.execute(Command::Checkpoint { session: "s".into() }) {
            Response::Checkpointed { state, .. } => state,
            other => panic!("{other:?}"),
        };
        // Two more acked events after the checkpoint.
        append(&s, "s", 3, LIVE_EV3);
        append(&s, "s", 4, LIVE_EV4);
        let svg_live = render_svg(&s, "s");
        drop(s);
        // Restoring the *older* checkpoint replays the journal suffix
        // (seqs 3 and 4) — nothing acked is lost.
        let t = Server::new(stream_limits(&dir));
        assert!(matches!(
            t.execute(Command::Restore { session: "s".into(), state: Some(state) }),
            Response::Restored { .. }
        ));
        assert!(matches!(
            append(&t, "s", 4, LIVE_EV4),
            Response::Appended { duplicate: true, .. }
        ));
        assert_eq!(render_svg(&t, "s"), svg_live);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn subscribe_streams_snapshot_then_incremental_deltas_over_serve() {
        let s = server();
        let mut script = String::new();
        for line in [
            Command::Append { session: "s".into(), seq: 1, text: LIVE_BASE.into() }.encode(),
            Command::Subscribe { session: "s".into(), from_seq: None }.encode(),
            Command::Append { session: "s".into(), seq: 2, text: LIVE_EV2.into() }.encode(),
            // Already current: no snapshot owed.
            Command::Subscribe { session: "s".into(), from_seq: Some(3) }.encode(),
        ] {
            script.push_str(&line);
            script.push('\n');
        }
        let mut out = Vec::new();
        s.serve(io::Cursor::new(script.into_bytes()), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 6, "{lines:#?}");
        assert!(matches!(
            Response::decode(lines[0]),
            Ok(Response::Appended { seq: 1, .. })
        ));
        assert!(matches!(
            Response::decode(lines[1]),
            Ok(Response::Subscribed { last_seq: 1, .. })
        ));
        // The catch-up snapshot: one delta carrying every visible node.
        match Push::decode(lines[2]) {
            Ok(Push::Delta { seq, changed, removed, .. }) => {
                assert_eq!(seq, 1);
                assert_eq!(changed.len(), 2, "both hosts visible");
                assert!(removed.is_empty());
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            Response::decode(lines[3]),
            Ok(Response::Appended { seq: 2, .. })
        ));
        // The incremental delta: only the node the sample touched.
        match Push::decode(lines[4]) {
            Ok(Push::Delta { seq, changed, removed, .. }) => {
                assert_eq!(seq, 2);
                assert_eq!(changed.len(), 1, "only h0's aggregate moved: {changed:?}");
                assert_eq!(changed[0].container, 1);
                assert!(removed.is_empty());
            }
            other => panic!("{other:?}"),
        }
        // The already-current re-subscribe answers without a snapshot.
        assert!(matches!(
            Response::decode(lines[5]),
            Ok(Response::Subscribed { last_seq: 2, .. })
        ));
    }

    #[test]
    fn slow_subscriber_sheds_to_lagging_and_never_blocks_append() {
        let limits = ServerLimits { subscriber_queue: 2, ..ServerLimits::default() };
        let s = Server::with_metrics(limits);
        let conn = s.open_conn();
        assert!(matches!(append(&s, "s", 1, LIVE_BASE), Response::Appended { .. }));
        let (r, ..) = s
            .execute_gated(Some(conn), Command::Subscribe { session: "s".into(), from_seq: None }, None);
        assert!(matches!(r, Response::Subscribed { last_seq: 1, .. }));
        // The subscriber never drains. Queue capacity is 2: the
        // snapshot plus one delta fit, the next delta overflows — the
        // queue is shed to a single `lagging`, and every append still
        // acks immediately.
        for seq in 2..=5u64 {
            let text = format!("var,{seq}.0,1,0,{}.0", 100 - seq);
            assert!(matches!(
                append(&s, "s", seq, &text),
                Response::Appended { duplicate: false, .. }
            ));
        }
        let pushes = s.take_pushes(conn);
        assert_eq!(pushes.len(), 1, "{pushes:#?}");
        match Push::decode(&pushes[0]) {
            // resume_seq = the snapshot's seq: nothing after it was
            // delivered, so the subscriber resumes from there.
            Ok(Push::Lagging { session, resume_seq }) => {
                assert_eq!(session, "s");
                assert_eq!(resume_seq, 1);
            }
            other => panic!("{other:?}"),
        }
        // The lagging notice also cancelled the subscription: further
        // appends push nothing.
        append(&s, "s", 6, "var,6.0,1,0,1.0");
        assert!(s.take_pushes(conn).is_empty());
        // Re-subscribing from the resume point resynchronizes with a
        // fresh snapshot.
        let (r, ..) = s.execute_gated(
            Some(conn),
            Command::Subscribe { session: "s".into(), from_seq: Some(1) },
            None,
        );
        assert!(matches!(r, Response::Subscribed { last_seq: 6, .. }));
        let pushes = s.take_pushes(conn);
        assert_eq!(pushes.len(), 1);
        assert!(matches!(Push::decode(&pushes[0]), Ok(Push::Delta { seq: 6, .. })));
        // The shed is observable.
        let block = match s.execute(Command::Stats { session: None, reset: false }) {
            Response::Stats { server, .. } => server,
            other => panic!("{other:?}"),
        };
        assert_eq!(counter(&block, "server.subscriber_sheds"), Some(1));
        s.close_conn(conn);
    }

    #[test]
    fn closing_a_connection_drops_its_subscriptions() {
        let s = server();
        append(&s, "s", 1, LIVE_BASE);
        let conn = s.open_conn();
        let (r, ..) = s
            .execute_gated(Some(conn), Command::Subscribe { session: "s".into(), from_seq: None }, None);
        assert!(matches!(r, Response::Subscribed { .. }));
        s.close_conn(conn);
        // Appends after the close publish to nobody — and don't leak
        // queue entries for the dead connection.
        assert!(matches!(append(&s, "s", 2, LIVE_EV2), Response::Appended { .. }));
        assert!(s.take_pushes(conn).is_empty());
        assert!(s.conns().subs.is_empty());
    }
}
