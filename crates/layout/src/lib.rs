//! # viva-layout — dynamic force-directed graph layout
//!
//! Implements the paper's §3.3/§4.2 layout system: node positions are
//! driven by physical forces —
//!
//! * **charge** — Coulomb repulsion between every pair of nodes; an
//!   aggregated node's charge is the *sum* of the charges it groups
//!   (paper §4.2), so collapsed groups keep pushing their surroundings
//!   as hard as their members did;
//! * **spring** — Hooke attraction along every edge;
//! * **damping** — velocity decay, the analyst's "converge faster /
//!   freeze" knob.
//!
//! Repulsion is computed either naively in `O(n²)`
//! ([`LayoutEngine::step_naive`]) or with the **Barnes-Hut**
//! approximation in `O(n log n)` ([`LayoutEngine::step`]) — the paper's
//! scalability argument, benchmarked in `viva-bench`.
//!
//! The engine is *dynamic*: nodes and edges can be added, removed,
//! pinned and dragged while the simulation keeps iterating, which is
//! what makes interactive aggregation/disaggregation smooth
//! ([`LayoutEngine::merge_nodes`] / [`LayoutEngine::split_node`]).
//!
//! Node keys are dense indices: a [`NodeKey`] should be a container
//! index, because the engine finds nodes through a slot table indexed
//! by the key, whose memory is `O(largest key inserted)`. Node and edge
//! removal and merges then cost the degrees they touch, not the layout
//! size.
//!
//! ## Example
//!
//! ```
//! use viva_layout::{LayoutConfig, LayoutEngine, NodeKey};
//!
//! let mut e = LayoutEngine::new(LayoutConfig::default(), 42);
//! let a = NodeKey(0);
//! let b = NodeKey(1);
//! e.add_node(a, 1.0);
//! e.add_node(b, 1.0);
//! e.add_edge(a, b);
//! e.run(500, 1e-4);
//! let d = (e.position(a).unwrap() - e.position(b).unwrap()).length();
//! // Connected nodes settle near the natural spring length.
//! assert!(d > 0.0);
//! ```

pub mod engine;
pub mod forces;
pub mod metrics;
pub mod quadtree;
pub mod vec2;

pub use engine::{FreezeReason, LayoutEngine, NodeKey};
pub use forces::LayoutConfig;
pub use quadtree::QuadTree;
pub use vec2::Vec2;
