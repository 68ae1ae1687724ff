//! The shared-trace store: named, content-hashed, refcounted traces.
//!
//! `load_trace` pays the full cost once — parse, validate, build the
//! aggregation index — and registers the result here. Every later
//! `attach` clones two `Arc`s and a session exists; a thousand analysts
//! over one trace hold **one** copy of the event data and **one**
//! index. The store never copies a trace: entries hold `Arc<Trace>`,
//! and the observable sharing degree is exactly
//! `Arc::strong_count - 1` (the store's own reference).
//!
//! Entries are keyed by analyst-chosen **name** and carry a
//! **content hash** (FNV-1a over the canonical CSV form), which is what
//! checkpoints record: a restore that finds a stored trace with the
//! same hash re-links to it instead of re-parsing the embedded CSV.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use viva_agg::AggIndex;
use viva_trace::Trace;

use crate::protocol::wire_struct;

/// One stored trace: the shared data, its shared index, and
/// the identity facts `list_traces` reports.
#[derive(Debug, Clone)]
pub struct StoredTrace {
    /// The shared trace. Sessions attach by cloning this handle.
    pub trace: Arc<Trace>,
    /// The shared aggregation index built at load time.
    pub index: Arc<AggIndex>,
    /// Content hash of the canonical CSV form (FNV-1a 64).
    pub hash: u64,
    /// Event records in the trace (as counted at load).
    pub events: u64,
}

wire_struct! {
    /// One row of the `list_traces` answer.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TraceEntry {
        /// The store name.
        pub name: String,
        /// Content hash, 16 lowercase hex digits.
        pub hash: String,
        /// Containers in the trace.
        pub containers: u64,
        /// Event records in the trace.
        pub events: u64,
        /// Sessions currently sharing the trace (`Arc` strong count minus
        /// the store's own reference).
        pub sessions: u64,
    }
}

/// The server's registry of loaded traces. All methods take `&self`;
/// the store is shared across shard workers behind one short-lived
/// mutex (entries are a few `Arc` clones, never trace data).
#[derive(Debug, Default)]
pub struct TraceStore {
    inner: Mutex<HashMap<String, StoredTrace>>,
}

/// FNV-1a 64-bit over raw bytes: the store's content hash. Stable,
/// dependency-free, and fast enough to run once per trace load.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders a content hash the way it crosses the wire and lands in
/// checkpoints: 16 lowercase hex digits.
pub fn hash_token(hash: u64) -> String {
    format!("{hash:016x}")
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    /// Registers (or replaces) a trace under `name`.
    pub fn insert(&self, name: &str, stored: StoredTrace) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).insert(name.to_owned(), stored);
    }

    /// The stored trace named `name`, if any.
    pub fn get(&self, name: &str) -> Option<StoredTrace> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).get(name).cloned()
    }

    /// Drops the entry named `name`; returns whether it existed. Live
    /// sessions attached to the trace keep their `Arc`s — dropping a
    /// store entry only stops *new* attaches.
    pub fn remove(&self, name: &str) -> bool {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).remove(name).is_some()
    }

    /// Any stored trace whose content hash is `hash` (restore re-link).
    pub fn find_by_hash(&self, hash: u64) -> Option<StoredTrace> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .find(|s| s.hash == hash)
            .cloned()
    }

    /// Name-sorted listing with live sharing degrees.
    pub fn list(&self) -> Vec<TraceEntry> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut rows: Vec<TraceEntry> = inner
            .iter()
            .map(|(name, s)| TraceEntry {
                name: name.clone(),
                hash: hash_token(s.hash),
                containers: s.trace.containers().len() as u64,
                events: s.events,
                sessions: (Arc::strong_count(&s.trace) as u64).saturating_sub(1),
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Number of stored traces.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viva_trace::{ContainerKind, TraceBuilder};

    fn tiny_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let power = b.metric("power", "MFlop/s");
        let h = b.new_container(b.root(), "h0", ContainerKind::Host).unwrap();
        b.set_variable(0.0, h, power, 100.0).unwrap();
        b.finish(10.0)
    }

    fn store_one(store: &TraceStore, name: &str) -> StoredTrace {
        let trace = Arc::new(tiny_trace());
        let csv = viva_trace::export::to_csv(&trace);
        let stored = StoredTrace {
            trace: Arc::clone(&trace),
            index: Arc::new(AggIndex::build(&trace)),
            hash: content_hash(csv.as_bytes()),
            events: 1,
        };
        store.insert(name, stored.clone());
        stored
    }

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        assert_eq!(content_hash(b""), 0xcbf29ce484222325);
        assert_eq!(content_hash(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(content_hash(b"span,0,10\n"), content_hash(b"span,0,11\n"));
        assert_eq!(hash_token(0xaf), "00000000000000af");
    }

    #[test]
    fn sharing_degree_tracks_live_arcs() {
        let store = TraceStore::new();
        store_one(&store, "t");
        assert_eq!(store.list()[0].sessions, 0, "no attachments yet");
        let a = store.get("t").unwrap().trace;
        let b = store.get("t").unwrap().trace;
        assert_eq!(store.list()[0].sessions, 2);
        drop(a);
        assert_eq!(store.list()[0].sessions, 1);
        drop(b);
        assert_eq!(store.list()[0].sessions, 0);
    }

    #[test]
    fn lookup_by_name_and_hash_and_removal() {
        let store = TraceStore::new();
        let stored = store_one(&store, "t");
        assert!(store.get("t").is_some());
        assert!(store.get("u").is_none());
        assert_eq!(store.find_by_hash(stored.hash).map(|s| s.hash), Some(stored.hash));
        assert!(store.find_by_hash(stored.hash ^ 1).is_none());
        assert!(store.remove("t"));
        assert!(!store.remove("t"));
        assert!(store.is_empty());
    }

    #[test]
    fn listing_is_name_sorted() {
        let store = TraceStore::new();
        store_one(&store, "zeta");
        store_one(&store, "alpha");
        let names: Vec<_> = store.list().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
