//! Readiness waits for the TCP shards: a one-function binding to the
//! C library's `poll(2)` (the libc `std` already links — no crate),
//! plus a per-shard [`Waker`] that lets other threads interrupt a
//! shard blocked in that wait.
//!
//! The call below is the workspace's only `unsafe` block.

use std::cell::Cell;
use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_short};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Interest in (and readiness for) reading; for a listener, a pending
/// connection.
pub(crate) const POLLIN: c_short = 0x001;
/// Interest in (and readiness for) writing.
pub(crate) const POLLOUT: c_short = 0x004;

/// One descriptor of an interest set, laid out as C's `struct pollfd`.
#[repr(C)]
#[derive(Debug)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd { fd, events, revents: 0 }
    }

    /// Whether the last [`wait`] reported anything for this descriptor:
    /// requested readiness, an error, or a hang-up.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until a descriptor in `fds` is ready or `timeout` passes
/// (`None` waits forever). The timeout is rounded *up* to whole
/// milliseconds, so a wait for a deadline never ends before it.
/// Returns how many entries are ready; a signal ends the wait early
/// with zero, which callers treat like a spurious wake-up.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms = timeout.map_or(-1, |t| {
        t.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int
    });
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `struct pollfd` records and `nfds` is its exact length, so the
    // kernel reads and writes only inside it, and it keeps no pointer
    // once the call returns.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
    if n >= 0 {
        return Ok(n as usize);
    }
    let e = io::Error::last_os_error();
    if e.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(e)
    }
}

thread_local! {
    /// The waker of the shard running on this thread, if any: wakes
    /// aimed at it are skipped, since the shard re-checks its queues
    /// before it next waits.
    static OWN: Cell<*const Waker> = const { Cell::new(std::ptr::null()) };
}

/// Interrupts one shard's [`wait`]: the shard polls the read end of a
/// socket pair, other threads write one byte to the other end.
///
/// Wakes are coalesced by a "wake pending" flag, so a burst of pushes
/// costs one byte. Ordering is what makes that safe: a waker sets the
/// flag *after* queueing its work, and the shard ([`Waker::reset`])
/// drains the socket *before* clearing the flag and then re-checks all
/// shared state before it waits again. A wake that finds the flag set
/// therefore either has its work seen by that re-check or has a byte
/// still in the socket. Both sides swap the flag with `AcqRel`: the
/// waker's swap releases the work it queued, and the shard's swap
/// acquires it, so the re-check cannot read a stale queue count.
#[derive(Debug)]
pub(crate) struct Waker {
    tx: UnixStream,
    rx: UnixStream,
    pending: AtomicBool,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx, pending: AtomicBool::new(false) })
    }

    /// The descriptor the owning shard polls for [`POLLIN`].
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Marks this waker as the calling thread's own shard.
    pub(crate) fn claim(&self) {
        OWN.set(self);
    }

    /// Interrupts the owning shard's current or next wait. Free when
    /// called from the owning shard itself or when a wake is already
    /// pending.
    pub(crate) fn wake(&self) {
        if std::ptr::eq(OWN.get(), self) || self.pending.swap(true, Ordering::AcqRel) {
            return;
        }
        // `WouldBlock` means the socket is full of wake-up bytes
        // already; any other failure leaves nothing to retry.
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes pending wake-ups. The owning shard calls this after a
    /// wait reported [`Waker::fd`] readable, before it re-checks
    /// shared state.
    pub(crate) fn reset(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        self.pending.swap(false, Ordering::AcqRel);
    }
}
