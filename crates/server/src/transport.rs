//! The transports: one frame core, two drivers.
//!
//! [`FrameConn`] holds every framing rule and does no I/O: bytes from
//! the peer go in, the encoded bytes owed to it come out. Both
//! transports drive it:
//!
//! * [`Server::serve`] pumps any `BufRead`/`Write` pair — the stdio
//!   single-analyst mode — feeding each batch `fill_buf` returns and
//!   writing what is owed before the next read;
//! * [`serve_tcp`] runs an **event-driven readiness loop**: shard
//!   threads each multiplex many non-blocking sockets and block in
//!   `poll(2)` when idle, so an idle server uses no CPU.
//!
//! Since the rules live in one place, a transcript depends neither on
//! the transport nor on how the peer's bytes were split into reads, as
//! long as the connection owes less than the write high-water mark.

use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::poll::{self, PollFd, Waker, POLLIN, POLLOUT};
use crate::server::{Server, SHARD};

/// Connections one shard accepts per loop tick. Bounded so draining a
/// deep accept backlog cannot starve the shard's live connections.
const ACCEPT_BURST: usize = 64;

/// Bytes a connection may owe its peer before it stops reading new
/// requests — natural pipelining backpressure. A peer that never reads
/// its responses makes no progress and trips the io timeout instead of
/// growing the buffer without bound.
const WRITE_HIGH_WATER: usize = 8 << 20;

/// One connection's framing state, independent of any transport: feed
/// it what the peer sent, write out what it [owes](Self::owed).
///
/// Every complete NDJSON frame executes as soon as it is fed, in
/// order, and is owed as its response followed by the pushes queued
/// for the connection by then. So a push never lands inside a
/// request/response pair, and where it lands does not depend on how
/// the bytes were split into reads. The other rules:
///
/// * a **torn frame** — bytes left without a newline at
///   [EOF](Self::eof), a client that died mid-command — is never
///   executed: it is dropped and counted (`server.torn_frames`);
/// * a line longer than
///   [`max_line_bytes`](crate::ServerLimits::max_line_bytes) — a
///   complete frame, or an unterminated fragment that can never become
///   a legal one — is answered with one `protocol` error and the
///   connection closes, however its bytes were split;
/// * a frame that is not UTF-8 closes the connection;
/// * once a **drain** starts, the connection closes after the
///   in-flight response.
///
/// The connection is registered for pushes while the value lives.
#[derive(Debug)]
pub struct FrameConn<'s> {
    server: &'s Server,
    /// The push-queue id ([`Server::open_conn`]).
    id: u64,
    /// Received bytes not yet part of an executed frame.
    read_buf: Vec<u8>,
    /// How far `read_buf` is known to hold no newline, so a large frame
    /// arriving in many chunks is scanned once.
    scan_from: usize,
    /// Encoded responses and pushes owed to the peer.
    write_buf: Vec<u8>,
    /// Read nothing more; close once `write_buf` is written.
    close_after_flush: bool,
}

impl<'s> FrameConn<'s> {
    /// Registers a new connection on `server`.
    pub fn new(server: &'s Server) -> FrameConn<'s> {
        FrameConn::open(server, None)
    }

    /// [`new`](Self::new) for a connection whose transport blocks in a
    /// readiness wait: `waker` interrupts it when a push is queued from
    /// another thread.
    fn open(server: &'s Server, waker: Option<&Arc<Waker>>) -> FrameConn<'s> {
        FrameConn {
            server,
            id: server.open_conn_on(waker),
            read_buf: Vec::new(),
            scan_from: 0,
            write_buf: Vec::new(),
            close_after_flush: false,
        }
    }

    /// Takes bytes from the peer and executes every frame they
    /// complete. Bytes fed once the connection is closing are ignored.
    ///
    /// # Errors
    ///
    /// `InvalidData` when a frame is not UTF-8. The connection is then
    /// closing; the responses to the frames before it are still owed.
    pub fn feed(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.close_after_flush {
            return Ok(());
        }
        self.read_buf.extend_from_slice(bytes);
        let max_line_bytes = self.server.registry().limits().max_line_bytes;
        let mut result = Ok(());
        let mut consumed = 0;
        while !self.close_after_flush {
            let from = consumed.max(self.scan_from);
            let Some(rel) = self.read_buf[from..].iter().position(|&b| b == b'\n') else { break };
            let frame = &self.read_buf[consumed..=from + rel];
            consumed = from + rel + 1;
            if frame.len() - 1 > max_line_bytes {
                owe(&mut self.write_buf, &self.server.line_too_long().encode());
                self.close_after_flush = true;
                break;
            }
            let Ok(text) = std::str::from_utf8(frame) else {
                self.close_after_flush = true;
                result = Err(io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"));
                break;
            };
            if let Some(response) = self.server.handle_line_on(Some(self.id), text) {
                owe(&mut self.write_buf, &response);
            }
            self.pull_pushes();
            if self.server.is_draining() {
                self.close_after_flush = true;
            }
        }
        self.read_buf.drain(..consumed);
        if self.close_after_flush {
            self.read_buf.clear();
        } else if self.read_buf.len() > max_line_bytes {
            owe(&mut self.write_buf, &self.server.line_too_long().encode());
            self.read_buf.clear();
            self.close_after_flush = true;
        }
        self.scan_from = self.read_buf.len();
        result
    }

    /// The peer's end of stream: close once what is owed is written.
    /// A fragment still buffered is a torn frame.
    pub fn eof(&mut self) {
        if !self.close_after_flush && !self.read_buf.is_empty() {
            self.server.note("server.torn_frames");
            if self.server.recorder().is_enabled() {
                self.server.recorder().event("server.torn_frame", "dropped");
            }
        }
        self.read_buf.clear();
        self.close_after_flush = true;
    }

    /// Owes the pushes queued for this connection, deltas published by
    /// other connections' appends included — while it is
    /// [reading](Self::reading). A subscriber that stops reading keeps
    /// its pushes in the server's bounded queue, overflows it and is
    /// shed with `lagging`: memory stays bounded and appenders never
    /// block.
    pub(crate) fn pull_pushes(&mut self) {
        if self.reading() {
            for push in self.server.take_pushes(self.id) {
                owe(&mut self.write_buf, &push);
            }
        }
    }

    /// The bytes owed to the peer, oldest first.
    pub fn owed(&self) -> &[u8] {
        &self.write_buf
    }

    /// Forgets the first `n` owed bytes: the transport wrote them.
    pub fn sent(&mut self, n: usize) {
        self.write_buf.drain(..n);
    }

    /// Whether the transport should read more: not once the connection
    /// is closing, and not while it owes the peer 8 MiB or more.
    pub fn reading(&self) -> bool {
        !self.close_after_flush && self.write_buf.len() < WRITE_HIGH_WATER
    }

    /// Whether the connection is over: closing, with nothing left owed.
    pub fn done(&self) -> bool {
        self.close_after_flush && self.write_buf.is_empty()
    }
}

impl Drop for FrameConn<'_> {
    /// Unregisters the connection: its push queue and subscriptions go
    /// with it.
    fn drop(&mut self) {
        self.server.close_conn(self.id);
    }
}

/// Appends one encoded line and its newline to `buf`.
fn owe(buf: &mut Vec<u8>, line: &str) {
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
}

impl Server {
    /// Serves one connection over `reader`/`writer` until EOF or until
    /// the connection closes (drain, oversize line). Each batch
    /// `fill_buf` returns is fed whole; what it owes is written and
    /// flushed before the next read.
    ///
    /// # Errors
    ///
    /// An I/O error on either side ends the loop (the connection is
    /// gone), and so does a frame that is not UTF-8 (`InvalidData`,
    /// after the frames before it are answered). Content never does.
    pub fn serve<R: BufRead, W: Write>(&self, mut reader: R, mut writer: W) -> io::Result<()> {
        let mut conn = FrameConn::new(self);
        while conn.reading() {
            let bytes = match reader.fill_buf() {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let (n, fed) = (bytes.len(), conn.feed(bytes));
            reader.consume(n);
            if n == 0 {
                conn.eof();
            }
            writer.write_all(conn.owed())?;
            writer.flush()?;
            conn.sent(conn.owed().len());
            fed?;
        }
        Ok(())
    }

    /// Serves a single analyst over stdin/stdout until EOF.
    pub fn serve_stdio(&self) -> io::Result<()> {
        self.serve(io::stdin().lock(), io::stdout().lock())
    }
}

/// One client connection owned by a shard: the non-blocking socket,
/// its frame state and its activity clock.
struct Conn<'s> {
    stream: TcpStream,
    frames: FrameConn<'s>,
    /// Last byte read or written. A connection that moves no byte
    /// either way for the io timeout is dropped.
    last_activity: Instant,
}

/// Serves `listener` with an event-driven readiness loop across
/// `workers` shard threads. Each shard owns a set of connections and
/// multiplexes all of them: per tick it accepts a bounded burst of new
/// sockets, flushes pending responses and feeds what readable sockets
/// hold to their [`FrameConn`]s. All shards share the server (and thus
/// its sessions and traces): two analysts can connect separately and
/// collaborate in one named session.
///
/// Sockets are non-blocking throughout. When a full tick makes no
/// progress the shard blocks in `poll(2)` until one of its sockets,
/// the shared listener or its waker is ready, or until the nearest
/// io-timeout deadline. The waker is how other threads reach a blocked
/// shard: a subscription push queued for one of its connections, or a
/// drain. Once [`Command::Shutdown`](crate::Command::Shutdown) runs,
/// each shard flushes what it owes, closes its connections, answers
/// any backlog with one `overloaded` line each, and exits. Joining the returned handles is
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
                        let frames = FrameConn::open(server, Some(waker));
                        conns.push(Conn { stream, frames, last_activity: Instant::now() });
                        progressed = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // The listener is gone; the shard's connections go too.
                Err(_) => return,
            }
        }
        let mut idx = 0;
        while idx < conns.len() {
            let (keep, worked) = pump_conn(server, &mut conns[idx], &mut scratch, io_timeout);
            progressed |= worked;
            if keep {
                idx += 1;
            } else {
                conns.swap_remove(idx);
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
        if conn.frames.reading() {
            events |= POLLIN;
        }
        if !conn.frames.owed().is_empty() {
            events |= POLLOUT;
        }
        fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
        if let Some(t) = io_timeout {
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
        let give_up = Instant::now() + Duration::from_millis(250);
        while flush_write(&mut conn, &mut false) && !conn.frames.owed().is_empty() {
            let left = give_up.saturating_duration_since(Instant::now());
            let mut fd = [PollFd::new(conn.stream.as_raw_fd(), POLLOUT)];
            if left.is_zero() || poll::wait(&mut fd, Some(left)).is_err() {
                break;
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

/// One tick of one connection: flush, read and execute until the
/// socket runs dry, collect pushes, flush again. Returns
/// `(keep, made_progress)`.
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
    while conn.frames.reading() {
        match conn.stream.read(scratch) {
            Ok(0) => conn.frames.eof(),
            // A frame that is not UTF-8 closes the connection, which
            // ends this loop: there is nothing more to do with the error.
            Ok(n) => {
                let _ = conn.frames.feed(&scratch[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return (false, true),
        }
        conn.last_activity = Instant::now();
        worked = true;
    }
    conn.frames.pull_pushes();
    if !flush_write(conn, &mut worked) || conn.frames.done() {
        return (false, worked);
    }
    // Slow-loris defence: a peer that trickles half a frame, or stops
    // reading what it is owed, loses the connection, not a shard.
    if io_timeout.is_some_and(|t| conn.last_activity.elapsed() >= t) {
        server.note("server.io_timeouts");
        return (false, worked);
    }
    (true, worked)
}

/// Writes what the connection owes as far as the socket takes it
/// without blocking; a write counts as activity. Returns `false` when
/// the connection is dead.
fn flush_write(conn: &mut Conn, worked: &mut bool) -> bool {
    while !conn.frames.owed().is_empty() {
        match conn.stream.write(conn.frames.owed()) {
            Ok(0) => return false,
            Ok(n) => {
                conn.frames.sent(n);
                conn.last_activity = Instant::now();
                *worked = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}
