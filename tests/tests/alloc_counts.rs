//! Heap allocations as a deterministic work counter.
//!
//! A counting global allocator (std [`GlobalAlloc`] over [`System`],
//! installed in this test binary only) tallies the allocations each
//! thread makes. Unlike a timing, the count does not depend on the
//! machine, so it can pin a complexity claim exactly: a level jump —
//! `collapse_at_depth(1)` to the site level, then `expand_all` back to
//! the hosts — makes as many allocations on a 20,000-host grid as on a
//! 2,000-host one, up to a fixed slack for containers that grow by
//! doubling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use viva::AnalysisSession;
use viva_trace::{ContainerKind, TraceBuilder};

/// Counts every allocation, zeroed allocation and reallocation of the
/// calling thread, then defers to [`System`].
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const SITES: usize = 10;
const CLUSTERS: usize = 10;

/// A session over `SITES` sites × `CLUSTERS` clusters × `hosts` hosts,
/// with one power sample per host and the same ten cross-site
/// communications whatever the size, so merges rewire edges.
fn grid_session(hosts: usize) -> AnalysisSession {
    let mut b = TraceBuilder::new();
    let power = b.metric("power", "MFlop/s");
    let mut host_ids = Vec::new();
    for s in 0..SITES {
        let site = b.new_container(b.root(), format!("s{s}"), ContainerKind::Site).unwrap();
        for c in 0..CLUSTERS {
            let cluster =
                b.new_container(site, format!("s{s}c{c}"), ContainerKind::Cluster).unwrap();
            for h in 0..hosts {
                let host =
                    b.new_container(cluster, format!("s{s}c{c}h{h}"), ContainerKind::Host).unwrap();
                b.set_variable(0.0, host, power, (100 + h % 7) as f64).unwrap();
                host_ids.push(host);
            }
        }
    }
    let per_site = CLUSTERS * hosts;
    for s in 0..SITES {
        let (from, to) = (host_ids[s * per_site], host_ids[((s + 1) % SITES) * per_site + 1]);
        b.link(1.0, 2.0, from, to, 10.0).unwrap();
    }
    AnalysisSession::builder(b.finish(10.0)).build()
}

/// Allocations of the site-level collapse and of the expand back.
fn level_jump_allocations(hosts: usize) -> (u64, u64) {
    let mut session = grid_session(hosts);
    let collapse = allocations(|| session.collapse_at_depth(1));
    assert_eq!(session.layout().len(), SITES, "site level");
    let expand = allocations(|| session.expand_all());
    assert_eq!(session.layout().len(), SITES * CLUSTERS * hosts, "host level");
    (collapse, expand)
}

/// Allowed growth per group from 2,000 to 20,000 hosts: the frontier
/// vectors grow by doubling, a few more times on the larger grid.
const SLACK: u64 = 16;

#[test]
fn level_jump_allocations_do_not_grow_with_the_host_count() {
    let (small_collapse, small_expand) = level_jump_allocations(20);
    let (large_collapse, large_expand) = level_jump_allocations(200);
    assert!(
        large_collapse <= small_collapse + SLACK,
        "collapse_at_depth(1): {small_collapse} allocations at 2,000 hosts, \
         {large_collapse} at 20,000"
    );
    assert!(
        large_expand <= small_expand + SLACK,
        "expand_all: {small_expand} allocations at 2,000 hosts, {large_expand} at 20,000"
    );
}
