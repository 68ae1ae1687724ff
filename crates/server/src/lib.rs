//! # viva-server — the headless serving layer
//!
//! Everything the paper's analyst does in-process on an
//! [`viva::AnalysisSession`] — time-slice selection (§3.2.1),
//! collapse/expand (§3.2.2), force sliders and node drags (§4.2),
//! rendering — exposed over a **newline-delimited JSON wire protocol**
//! so an analysis can be driven remotely, shared between analysts, and
//! benchmarked under concurrent load.
//!
//! The design follows graphVizdb's server-boundary-in-front-of-the-
//! graph shape and Mr. Plotter's resolution-aware request/response
//! discipline: the client states *what it wants to see* (slice,
//! collapse level, viewport, theme) and the server answers from caches
//! wherever the session revision proves the answer is still fresh.
//!
//! ## Pieces
//!
//! * [`protocol`] — the [`Command`] / [`Response`] enums and their
//!   deterministic
//!   JSON encoding: same value, same bytes, always. Built on the
//!   dependency-free [`json`] module.
//! * [`registry`] — [`SessionRegistry`]:
//!   many concurrent named sessions behind per-session locks, bounded
//!   by LRU eviction on a logical clock.
//! * [`cache`] — the per-session frame cache keyed on
//!   `(view revision, viewport, theme)`; slider-only changes re-render
//!   without re-aggregating, repeat renders are free.
//! * [`server`] — [`Server`]: the transport-agnostic
//!   request loop, served over stdio (single analyst) or a
//!   `TcpListener` by sharded readiness loops that block in `poll(2)` — behind
//!   admission control, per-command deadlines, and a graceful drain
//!   (DESIGN.md §14).
//! * [`checkpoint`] — [`SessionCheckpoint`]:
//!   deterministic, versioned snapshots of per-session view state;
//!   a restored session renders byte-identically to the live one.
//! * [`store`] — [`TraceStore`]: named, content-hashed, refcounted
//!   traces; `load_trace` pays parse + index once and `attach` creates
//!   further sessions over the same `Arc<Trace>` for free.
//!
//! ## Determinism
//!
//! A fresh server given the same command script produces
//! **byte-identical** response transcripts: layouts are seeded and
//! byte-deterministic, JSON encoding is canonical, and every cache
//! and eviction decision runs on logical clocks, not wall time. The
//! golden-transcript tests and `ci.sh server-smoke` hold the serving
//! layer to exactly that bar.
//!
//! ## Quickstart (stdio)
//!
//! ```text
//! $ cargo run -p viva-server --bin viva-server -- --stdio
//! {"cmd":"load_trace","session":"a","mode":"strict","text":"span,0.0,10.0\n..."}
//! {"ok":"loaded","session":"a","containers":6,...}
//! {"cmd":"render","session":"a","width":800,"height":600,"theme":"light","labels":false}
//! {"ok":"frame","revision":0,"cached":false,"svg":"<svg ..."}
//! ```

pub mod cache;
pub mod checkpoint;
pub mod json;
mod poll;
pub mod protocol;
pub mod registry;
pub mod selftrace;
pub mod server;
pub mod store;

pub use cache::{FrameCache, FrameKey};
pub use checkpoint::{
    NodePlacement, RestoreError, SessionCheckpoint, CHECKPOINT_VERSION, OLDEST_RESTORABLE_VERSION,
};
pub use json::{Json, JsonError};
pub use protocol::{
    Command, CommandClass, DecodeError, DeltaNode, ErrorKind, Push, Response, SessionStats,
    StatsBlock, StatsEvent,
};
pub use registry::{
    DeadlineBudgets, LiveStream, ServerLimits, ServerSession, SessionRegistry, SessionSlot,
};
pub use server::{serve_tcp, Server};
pub use store::{content_hash, hash_token, StoredTrace, TraceEntry, TraceStore};
