//! [`LayoutEngine`] against a plain reference model.
//!
//! The model keeps its nodes in a `Vec` found by linear search and its
//! edges in a sorted set that every removal and merge scans in full:
//! the engine's bookkeeping before it had a slot table and incident-edge
//! lists. Its step is the engine's physics written out (Barnes-Hut
//! repulsion from the same [`QuadTree`], springs in edge order, damped
//! and capped integration). After every operation of a random sequence
//! — keys inserted out of order, removed and re-inserted, merged and
//! split — both sides must agree on the node count, the edge list, the
//! node order with every position bit for bit, and the pins.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use viva_layout::forces::spring_force;
use viva_layout::{LayoutConfig, LayoutEngine, NodeKey, QuadTree, Vec2};

const SEED: u64 = 7;

#[derive(Debug, Clone)]
enum Op {
    AddNode(u64, f64),
    AddNodeAt(u64, f64, f64, f64),
    RemoveNode(u64),
    Merge(u64, Vec<u64>),
    Split(u64, Vec<(u64, f64)>),
    AddEdge(u64, u64),
    RemoveEdge(u64, u64),
    /// Removes the n-th existing edge (modulo the edge count), so that
    /// removals hit edges far more often than random pairs do.
    RemoveNthEdge(usize),
    Pin(u64),
    Unpin(u64),
    Step,
}

#[derive(Debug, Clone)]
struct ModelNode {
    key: NodeKey,
    pos: Vec2,
    vel: Vec2,
    charge: f64,
    pinned: bool,
}

struct Model {
    config: LayoutConfig,
    rng: SmallRng,
    nodes: Vec<ModelNode>,
    edges: BTreeSet<(NodeKey, NodeKey)>,
}

fn edge_key(a: NodeKey, b: NodeKey) -> (NodeKey, NodeKey) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Model {
    fn new() -> Model {
        Model {
            config: LayoutConfig::default(),
            rng: SmallRng::seed_from_u64(SEED),
            nodes: Vec::new(),
            edges: BTreeSet::new(),
        }
    }

    fn find(&self, key: NodeKey) -> Option<usize> {
        self.nodes.iter().position(|n| n.key == key)
    }

    fn add_node(&mut self, key: NodeKey, charge: f64) {
        let spread = self.config.spring_length * (self.nodes.len() as f64).sqrt().max(1.0);
        let x = self.rng.gen_range(-spread..=spread);
        let y = self.rng.gen_range(-spread..=spread);
        self.add_node_at(key, charge, Vec2::new(x, y));
    }

    fn add_node_at(&mut self, key: NodeKey, charge: f64, pos: Vec2) {
        if self.find(key).is_none() {
            let vel = Vec2::default();
            self.nodes.push(ModelNode { key, pos, vel, charge, pinned: false });
        }
    }

    fn remove_node(&mut self, key: NodeKey) {
        if let Some(i) = self.find(key) {
            self.nodes.swap_remove(i);
            self.edges.retain(|&(a, b)| a != key && b != key);
        }
    }

    fn add_edge(&mut self, a: NodeKey, b: NodeKey) {
        if a != b {
            self.edges.insert(edge_key(a, b));
        }
    }

    fn merge(&mut self, key: NodeKey, members: &[NodeKey]) {
        let mut total_charge = 0.0;
        let mut weighted = Vec2::default();
        let mut count = 0usize;
        let mut neighbours = Vec::new();
        for &m in members {
            let Some(i) = self.find(m) else { continue };
            let n = &self.nodes[i];
            total_charge += n.charge;
            weighted += n.pos * n.charge.max(1e-12);
            count += 1;
            for &(a, b) in &self.edges {
                if a == m && !members.contains(&b) {
                    neighbours.push(b);
                }
                if b == m && !members.contains(&a) {
                    neighbours.push(a);
                }
            }
        }
        if count == 0 {
            return;
        }
        let denom: f64 = members
            .iter()
            .filter_map(|&m| self.find(m))
            .map(|i| self.nodes[i].charge.max(1e-12))
            .sum();
        let barycenter = weighted / denom;
        for &m in members {
            self.remove_node(m);
        }
        self.add_node_at(key, total_charge, barycenter);
        neighbours.sort();
        neighbours.dedup();
        for nb in neighbours {
            if self.find(nb).is_some() {
                self.add_edge(key, nb);
            }
        }
    }

    fn split(&mut self, key: NodeKey, children: &[(NodeKey, f64)]) {
        let Some(i) = self.find(key) else { return };
        let pos = self.nodes[i].pos;
        self.remove_node(key);
        let r = self.config.spring_length * 0.25;
        let n = children.len().max(1) as f64;
        for (i, &(child, charge)) in children.iter().enumerate() {
            let angle = std::f64::consts::TAU * i as f64 / n;
            let offset = Vec2::new(angle.cos(), angle.sin()) * r;
            self.add_node_at(child, charge, pos + offset);
        }
    }

    fn step(&mut self) {
        let cfg = self.config;
        let points: Vec<(Vec2, f64)> = self.nodes.iter().map(|n| (n.pos, n.charge)).collect();
        let tree = QuadTree::build(&points);
        let mut forces: Vec<Vec2> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                tree.repulsion(n.pos, n.charge, i, cfg.theta, cfg.min_distance).0 * cfg.repulsion
            })
            .collect();
        for &(a, b) in &self.edges {
            let (ia, ib) = (self.find(a).unwrap(), self.find(b).unwrap());
            let f =
                spring_force(self.nodes[ia].pos, self.nodes[ib].pos, cfg.spring, cfg.spring_length);
            forces[ia] += f;
            forces[ib] -= f;
        }
        for (n, &f) in self.nodes.iter_mut().zip(&forces) {
            if n.pinned {
                n.vel = Vec2::default();
                continue;
            }
            n.vel = (n.vel + f * cfg.dt) * cfg.damping;
            let mut disp = n.vel * cfg.dt;
            let d = disp.length();
            if d > cfg.max_displacement {
                disp = disp * (cfg.max_displacement / d);
            }
            n.pos += disp;
        }
    }
}

/// Applies `op` to both sides. Operations the engine documents as
/// panicking (an edge to an unknown node, a merge onto a present key
/// that is not a member) are skipped on both.
fn apply(engine: &mut LayoutEngine, model: &mut Model, op: &Op) {
    let k = NodeKey;
    match op {
        Op::AddNode(key, charge) => {
            engine.add_node(k(*key), *charge);
            model.add_node(k(*key), *charge);
        }
        Op::AddNodeAt(key, charge, x, y) => {
            engine.add_node_at(k(*key), *charge, Vec2::new(*x, *y));
            model.add_node_at(k(*key), *charge, Vec2::new(*x, *y));
        }
        Op::RemoveNode(key) => {
            engine.remove_node(k(*key));
            model.remove_node(k(*key));
        }
        Op::Merge(key, members) => {
            let members: Vec<NodeKey> = members.iter().map(|&m| k(m)).collect();
            if model.find(k(*key)).is_none() || members.contains(&k(*key)) {
                engine.merge_nodes(k(*key), &members);
                model.merge(k(*key), &members);
            }
        }
        Op::Split(key, children) => {
            let children: Vec<(NodeKey, f64)> = children.iter().map(|&(c, q)| (k(c), q)).collect();
            engine.split_node(k(*key), &children);
            model.split(k(*key), &children);
        }
        Op::AddEdge(a, b) => {
            if model.find(k(*a)).is_some() && model.find(k(*b)).is_some() {
                engine.add_edge(k(*a), k(*b));
                model.add_edge(k(*a), k(*b));
            }
        }
        Op::RemoveEdge(a, b) => {
            engine.remove_edge(k(*a), k(*b));
            model.edges.remove(&edge_key(k(*a), k(*b)));
        }
        Op::RemoveNthEdge(n) => {
            if !model.edges.is_empty() {
                let (a, b) = *model.edges.iter().nth(n % model.edges.len()).unwrap();
                engine.remove_edge(b, a);
                model.edges.remove(&(a, b));
            }
        }
        Op::Pin(key) => {
            engine.pin(k(*key));
            if let Some(i) = model.find(k(*key)) {
                model.nodes[i].pinned = true;
                model.nodes[i].vel = Vec2::default();
            }
        }
        Op::Unpin(key) => {
            engine.unpin(k(*key));
            if let Some(i) = model.find(k(*key)) {
                model.nodes[i].pinned = false;
            }
        }
        Op::Step => {
            engine.step();
            model.step();
        }
    }
}

/// Keys span a small range so that removals, re-insertions, merges and
/// edges keep meeting nodes that exist.
const KEYS: u64 = 10;

fn op() -> impl Strategy<Value = Op> {
    let key = || 0..KEYS;
    let charge = || 0.5f64..4.0;
    prop_oneof![
        (key(), charge()).prop_map(|(k, q)| Op::AddNode(k, q)),
        (key(), charge()).prop_map(|(k, q)| Op::AddNode(k, q)),
        (key(), charge(), -60.0f64..60.0, -60.0f64..60.0)
            .prop_map(|(k, q, x, y)| Op::AddNodeAt(k, q, x, y)),
        key().prop_map(Op::RemoveNode),
        (key(), proptest::collection::vec(key(), 0..6)).prop_map(|(k, m)| Op::Merge(k, m)),
        (key(), proptest::collection::vec((key(), charge()), 0..5))
            .prop_map(|(k, c)| Op::Split(k, c)),
        (key(), key()).prop_map(|(a, b)| Op::AddEdge(a, b)),
        (key(), key()).prop_map(|(a, b)| Op::AddEdge(a, b)),
        (key(), key()).prop_map(|(a, b)| Op::RemoveEdge(a, b)),
        (0usize..64).prop_map(Op::RemoveNthEdge),
        key().prop_map(Op::Pin),
        key().prop_map(Op::Unpin),
        Just(Op::Step),
        Just(Op::Step),
    ]
}

type Snapshot = (usize, Vec<(NodeKey, NodeKey)>, Vec<(NodeKey, u64, u64)>, Vec<bool>);

fn engine_snapshot(e: &LayoutEngine) -> Snapshot {
    (
        e.len(),
        e.edges().collect(),
        e.positions().map(|(k, p)| (k, p.x.to_bits(), p.y.to_bits())).collect(),
        (0..KEYS).map(|k| e.is_pinned(NodeKey(k))).collect(),
    )
}

fn model_snapshot(m: &Model) -> Snapshot {
    (
        m.nodes.len(),
        m.edges.iter().copied().collect(),
        m.nodes.iter().map(|n| (n.key, n.pos.x.to_bits(), n.pos.y.to_bits())).collect(),
        (0..KEYS).map(|k| m.find(NodeKey(k)).is_some_and(|i| m.nodes[i].pinned)).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn engine_matches_the_reference_model_after_every_operation(
        ops in proptest::collection::vec(op(), 1..100),
    ) {
        let mut engine = LayoutEngine::new(LayoutConfig::default(), SEED);
        let mut model = Model::new();
        for (i, op) in ops.iter().enumerate() {
            apply(&mut engine, &mut model, op);
            prop_assert!(!engine.is_frozen(), "op {i} {op:?} froze the layout");
            prop_assert_eq!(engine_snapshot(&engine), model_snapshot(&model), "after op {} {:?}", i, op);
            for key in 0..KEYS {
                let p = engine.position(NodeKey(key));
                prop_assert_eq!(p.is_some(), model.find(NodeKey(key)).is_some(), "key {}", key);
            }
            // Unknown and huge keys are absent, whatever the table holds.
            for key in [KEYS, 1 << 40, u64::MAX] {
                prop_assert_eq!(engine.position(NodeKey(key)), None);
                prop_assert!(!engine.move_node(NodeKey(key), Vec2::new(1.0, 1.0)));
                prop_assert!(!engine.remove_node(NodeKey(key)));
            }
        }
    }
}
