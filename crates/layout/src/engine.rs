//! The dynamic layout engine: node/edge bookkeeping, force
//! integration, pinning, and smooth aggregation morphs.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use viva_obs::{Counter, Gauge, Recorder};

use crate::forces::{spring_force, LayoutConfig};
use crate::quadtree::{naive_repulsion, QuadTree};
use crate::vec2::Vec2;

/// Why the watchdog froze a layout (see
/// [`LayoutEngine::freeze_reason`]).
///
/// A frozen layout keeps serving positions — the last healthy frame —
/// but [`step`](LayoutEngine::step) becomes a no-op until
/// [`thaw`](LayoutEngine::thaw)ed. Freezing is the degradation path for
/// pathological inputs: the view stays up instead of filling with NaNs
/// or marching off to infinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreezeReason {
    /// A force evaluated to NaN/∞ (e.g. a non-finite node charge fed
    /// in by a degenerate aggregate). Positions were left untouched.
    NonFiniteForce,
    /// The iteration watchdog: every node displacement has ridden the
    /// `max_displacement` cap for many consecutive steps — the
    /// simulation is diverging, not converging.
    RunawayDisplacement,
}

impl FreezeReason {
    /// Stable machine-readable token, used by obs events and the wire
    /// protocol's `stats` response (the [`Display`](std::fmt::Display)
    /// form is for humans).
    pub fn token(&self) -> &'static str {
        match self {
            FreezeReason::NonFiniteForce => "non_finite_force",
            FreezeReason::RunawayDisplacement => "runaway_displacement",
        }
    }
}

impl std::fmt::Display for FreezeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FreezeReason::NonFiniteForce => "non-finite force",
            FreezeReason::RunawayDisplacement => "runaway displacement",
        })
    }
}

/// Caller-chosen stable identifier of a layout node (the visualization
/// layer uses trace container ids).
///
/// Keys are dense indices: the engine finds a node through a slot table
/// indexed by `key.0`, so its memory is `O(largest key inserted)`. Use
/// a container index (or any small integer), never a hash or a sparse
/// id. Looking up an unknown or huge key allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeKey(pub u64);

#[derive(Debug, Clone)]
struct Node {
    key: NodeKey,
    pos: Vec2,
    vel: Vec2,
    charge: f64,
    pinned: bool,
    /// Temporary mark of [`LayoutEngine::merge_nodes`]: set on the members
    /// being merged, and gone with them when they are removed.
    merging: bool,
}

/// Slot-table entry of a key with no node.
const ABSENT: u32 = u32::MAX;

/// A dynamic force-directed layout.
///
/// Node positions evolve one [`step`](LayoutEngine::step) at a time;
/// topology changes (add/remove/merge/split) take effect immediately
/// and the ongoing iteration smoothly absorbs them — the property the
/// paper relies on for non-confusing aggregation (§3.3).
#[derive(Debug, Clone)]
pub struct LayoutEngine {
    config: LayoutConfig,
    nodes: Vec<Node>,
    /// Dense slot table: `slots[key.0]` is the node's index in `nodes`,
    /// or [`ABSENT`]. It grows only when a larger key is inserted.
    slots: Vec<u32>,
    // BTreeSet: deterministic iteration order makes force summation
    // order (and hence floating-point results) reproducible.
    edges: BTreeSet<(NodeKey, NodeKey)>,
    /// Incident edges per slot: `adjacency[key.0]` holds the other
    /// endpoint of every edge of `key`, in no particular order. Lets node
    /// removal and merges touch only the edges they change. It grows
    /// only when an edge is added, so an edgeless layout keeps it empty.
    adjacency: Vec<Vec<NodeKey>>,
    rng: SmallRng,
    steps: u64,
    /// Watchdog state: `Some` while frozen.
    frozen: Option<FreezeReason>,
    /// Consecutive steps whose max displacement rode the cap.
    at_cap_streak: u32,
    /// Cached metric handles; `None` until an active recorder is wired
    /// via [`set_recorder`](LayoutEngine::set_recorder), keeping the
    /// observability-off hot path free of even the no-op handle calls.
    obs: Option<Box<LayoutObs>>,
}

/// Pre-resolved metric handles for the per-step hot path (a registry
/// lookup per step would dwarf the cost of the metrics themselves).
#[derive(Debug, Clone)]
struct LayoutObs {
    /// Times each step as the `layout.step` phase and logs freezes.
    recorder: Recorder,
    /// `layout.steps` — simulation steps actually executed.
    steps: Counter,
    /// `layout.kinetic_energy` — mean kinetic energy after the last
    /// step: the convergence signal behind the paper's Fig. 5 sliders.
    kinetic: Gauge,
    /// `layout.max_displacement` — largest node move in the last step.
    max_disp: Gauge,
    /// `layout.bh.cell_visits` — Coulomb evaluations the quadtree
    /// actually performed.
    cell_visits: Counter,
    /// `layout.bh.naive_pairs` — what the exact `O(n²)` pass would have
    /// evaluated; the ratio to `cell_visits` is the live Barnes-Hut
    /// speedup.
    naive_pairs: Counter,
    /// `layout.freezes` — watchdog trips.
    freezes: Counter,
}

impl LayoutObs {
    fn new(recorder: Recorder) -> LayoutObs {
        // Registered now so `stats` lists it before the first step.
        recorder.histogram("layout.step.seconds");
        LayoutObs {
            steps: recorder.counter("layout.steps"),
            kinetic: recorder.gauge("layout.kinetic_energy"),
            max_disp: recorder.gauge("layout.max_displacement"),
            cell_visits: recorder.counter("layout.bh.cell_visits"),
            naive_pairs: recorder.counter("layout.bh.naive_pairs"),
            freezes: recorder.counter("layout.freezes"),
            recorder,
        }
    }
}

/// Consecutive at-cap steps before the iteration watchdog declares
/// divergence. Healthy layouts ride the displacement cap briefly (a
/// dragged node snapping back, a freshly split aggregate fanning out);
/// a diverging one never leaves it.
const RUNAWAY_STREAK: u32 = 128;

/// Node count below which the repulsion pass stays serial. An earlier
/// `BENCH_interactivity.json` run measured 4 threads *slower* than
/// serial at 500 hosts (142.9 ms vs 124.6 ms over 60 steps): thread
/// spawn and cache traffic dwarf the per-node Barnes-Hut work there.
/// From here on the threads pay: per step on a 2-vCPU machine, 1,024
/// nodes took 5.1 ms serial vs 4.4 ms on 2 threads, and 4,421 nodes
/// 26.5 ms vs 20.4 ms.
pub(crate) const PARALLEL_THRESHOLD: usize = 1024;

/// Worker threads the repulsion pass uses for `n` nodes: one below
/// [`PARALLEL_THRESHOLD`], otherwise the hardware parallelism, and
/// never more threads than nodes.
fn thread_plan(n: usize) -> usize {
    if n < PARALLEL_THRESHOLD {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |p| p.get()).min(n)
    }
}

impl LayoutEngine {
    /// Creates an empty layout. `seed` drives initial node placement
    /// (two engines with equal seeds and operation sequences produce
    /// identical layouts).
    ///
    /// Invalid `config` values are repaired via
    /// [`LayoutConfig::sanitized`] rather than panicking: the layout is
    /// part of the panic-free render path.
    pub fn new(config: LayoutConfig, seed: u64) -> LayoutEngine {
        LayoutEngine {
            config: config.sanitized(),
            nodes: Vec::new(),
            slots: Vec::new(),
            edges: BTreeSet::new(),
            adjacency: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            steps: 0,
            frozen: None,
            at_cap_streak: 0,
            obs: None,
        }
    }

    /// Wires an observability recorder into the engine. Inactive
    /// recorders are discarded entirely — the hot path stays exactly
    /// the uninstrumented one. Active recorders get per-step gauges
    /// (kinetic energy, max displacement), Barnes-Hut work counters,
    /// the `layout.step` phase, and freeze/thaw events.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.obs = recorder.is_active().then(|| Box::new(LayoutObs::new(recorder)));
    }

    /// Current parameters.
    pub fn config(&self) -> &LayoutConfig {
        &self.config
    }

    /// Mutable parameters — the §4.2 sliders. Values are sanitized
    /// (repaired, never panicked on) on the next
    /// [`step`](LayoutEngine::step).
    pub fn config_mut(&mut self) -> &mut LayoutConfig {
        &mut self.config
    }

    /// Whether the watchdog froze the simulation. Frozen layouts keep
    /// serving their last healthy positions; stepping is a no-op.
    pub fn is_frozen(&self) -> bool {
        self.frozen.is_some()
    }

    /// Why the layout froze, `None` while running.
    pub fn freeze_reason(&self) -> Option<FreezeReason> {
        self.frozen
    }

    /// Lifts a watchdog freeze and resumes stepping. Velocities are
    /// zeroed so the resumed simulation restarts from rest instead of
    /// replaying the momentum that tripped the watchdog.
    pub fn thaw(&mut self) {
        if let (Some(obs), Some(reason)) = (&self.obs, self.frozen) {
            obs.recorder.event("layout.thaw", reason.token());
        }
        self.frozen = None;
        self.at_cap_streak = 0;
        for n in &mut self.nodes {
            n.vel = Vec2::default();
        }
    }

    fn freeze(&mut self, reason: FreezeReason) {
        if self.frozen.is_none() {
            self.frozen = Some(reason);
            if let Some(obs) = &self.obs {
                obs.freezes.inc();
                obs.recorder.event("layout.freeze", reason.token());
            }
        }
        for n in &mut self.nodes {
            n.vel = Vec2::default();
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the layout has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Adds a node with `charge` at a seeded random position near the
    /// current layout. No-op (returning `false`) when the key exists.
    pub fn add_node(&mut self, key: NodeKey, charge: f64) -> bool {
        let spread = self.config.spring_length * (self.nodes.len() as f64).sqrt().max(1.0);
        let pos = Vec2::new(
            self.rng.gen_range(-spread..=spread),
            self.rng.gen_range(-spread..=spread),
        );
        self.add_node_at(key, charge, pos)
    }

    /// Adds a node at an explicit position. Returns `false` when the
    /// key already exists.
    ///
    /// # Panics
    ///
    /// Panics when `key.0` does not fit in `usize`, or when the slot
    /// table cannot grow to `key.0 + 1` entries (see [`NodeKey`]).
    pub fn add_node_at(&mut self, key: NodeKey, charge: f64, pos: Vec2) -> bool {
        if self.slot(key).is_some() {
            return false;
        }
        let k = usize::try_from(key.0).expect("a NodeKey is a dense index");
        if k >= self.slots.len() {
            self.slots.resize(k + 1, ABSENT);
        }
        self.slots[k] = u32::try_from(self.nodes.len()).expect("fewer than 2^32 layout nodes");
        self.nodes.push(Node {
            key,
            pos,
            vel: Vec2::default(),
            charge,
            pinned: false,
            merging: false,
        });
        true
    }

    /// Index of `key`'s node in `nodes`, `None` for an unknown key.
    fn slot(&self, key: NodeKey) -> Option<usize> {
        let s = *self.slots.get(usize::try_from(key.0).ok()?)?;
        (s != ABSENT).then_some(s as usize)
    }

    /// Removes a node and its incident edges. Returns `false` for an
    /// unknown key. Costs the degree of the node plus the degrees of
    /// its neighbours.
    pub fn remove_node(&mut self, key: NodeKey) -> bool {
        let Some(i) = self.slot(key) else {
            return false;
        };
        for nb in self.take_incident(key) {
            self.edges.remove(&Self::edge_key(key, nb));
            self.unlink(nb, key);
        }
        self.nodes.swap_remove(i);
        self.slots[key.0 as usize] = ABSENT;
        if let Some(moved) = self.nodes.get(i) {
            self.slots[moved.key.0 as usize] = i as u32;
        }
        true
    }

    /// `key`'s incident-edge list, `None` when it has none.
    fn incident(&mut self, key: NodeKey) -> Option<&mut Vec<NodeKey>> {
        self.adjacency.get_mut(usize::try_from(key.0).ok()?)
    }

    /// Takes `key`'s incident-edge list, leaving it empty.
    fn take_incident(&mut self, key: NodeKey) -> Vec<NodeKey> {
        self.incident(key).map(std::mem::take).unwrap_or_default()
    }

    /// Drops `gone` from `key`'s incident-edge list.
    fn unlink(&mut self, key: NodeKey, gone: NodeKey) {
        if let Some(list) = self.incident(key) {
            if let Some(at) = list.iter().position(|&k| k == gone) {
                list.swap_remove(at);
            }
        }
    }

    fn edge_key(a: NodeKey, b: NodeKey) -> (NodeKey, NodeKey) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Adds an undirected edge (spring). Self-edges and duplicates are
    /// ignored. Returns `true` when a new edge was inserted.
    ///
    /// # Panics
    ///
    /// Panics when either endpoint is unknown.
    pub fn add_edge(&mut self, a: NodeKey, b: NodeKey) -> bool {
        assert!(self.slot(a).is_some(), "unknown node {a:?}");
        assert!(self.slot(b).is_some(), "unknown node {b:?}");
        if a == b || !self.edges.insert(Self::edge_key(a, b)) {
            return false;
        }
        let (ka, kb) = (a.0 as usize, b.0 as usize);
        if self.adjacency.len() <= ka.max(kb) {
            self.adjacency.resize_with(ka.max(kb) + 1, Vec::new);
        }
        self.adjacency[ka].push(b);
        self.adjacency[kb].push(a);
        true
    }

    /// Removes an edge; returns whether it existed.
    pub fn remove_edge(&mut self, a: NodeKey, b: NodeKey) -> bool {
        if !self.edges.remove(&Self::edge_key(a, b)) {
            return false;
        }
        self.unlink(a, b);
        self.unlink(b, a);
        true
    }

    /// Whether an edge exists.
    pub fn has_edge(&self, a: NodeKey, b: NodeKey) -> bool {
        self.edges.contains(&Self::edge_key(a, b))
    }

    /// Iterates over edges in unspecified order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeKey, NodeKey)> + '_ {
        self.edges.iter().copied()
    }

    /// Position of a node.
    pub fn position(&self, key: NodeKey) -> Option<Vec2> {
        self.slot(key).map(|i| self.nodes[i].pos)
    }

    /// Charge of a node.
    pub fn charge(&self, key: NodeKey) -> Option<f64> {
        self.slot(key).map(|i| self.nodes[i].charge)
    }

    /// Updates a node's charge (e.g. when its aggregate grows).
    /// Returns `false` for an unknown key.
    pub fn set_charge(&mut self, key: NodeKey, charge: f64) -> bool {
        match self.slot(key) {
            Some(i) => {
                self.nodes[i].charge = charge;
                true
            }
            None => false,
        }
    }

    /// Pins a node: forces no longer move it (the analyst is holding
    /// it, or wants it anchored — "machines being on the north of the
    /// country would be put on the top of the screen", §4.2).
    pub fn pin(&mut self, key: NodeKey) -> bool {
        match self.slot(key) {
            Some(i) => {
                self.nodes[i].pinned = true;
                self.nodes[i].vel = Vec2::default();
                true
            }
            None => false,
        }
    }

    /// Unpins a node.
    pub fn unpin(&mut self, key: NodeKey) -> bool {
        match self.slot(key) {
            Some(i) => {
                self.nodes[i].pinned = false;
                true
            }
            None => false,
        }
    }

    /// Whether a node is pinned.
    pub fn is_pinned(&self, key: NodeKey) -> bool {
        self.slot(key).is_some_and(|i| self.nodes[i].pinned)
    }

    /// Moves a node to `pos` (mouse drag). The neighbours will follow
    /// through their springs on subsequent steps. Returns `false` for
    /// an unknown key or a non-finite target position (a NaN drag
    /// would poison every force involving this node).
    pub fn move_node(&mut self, key: NodeKey, pos: Vec2) -> bool {
        if !(pos.x.is_finite() && pos.y.is_finite()) {
            return false;
        }
        match self.slot(key) {
            Some(i) => {
                self.nodes[i].pos = pos;
                self.nodes[i].vel = Vec2::default();
                true
            }
            None => false,
        }
    }

    /// Iterates over `(key, position)` pairs in insertion-ish order.
    pub fn positions(&self) -> impl Iterator<Item = (NodeKey, Vec2)> + '_ {
        self.nodes.iter().map(|n| (n.key, n.pos))
    }

    /// Axis-aligned bounding box of all nodes, `None` when empty.
    pub fn bounds(&self) -> Option<(Vec2, Vec2)> {
        let first = self.nodes.first()?.pos;
        let mut lo = first;
        let mut hi = first;
        for n in &self.nodes {
            lo = lo.min(n.pos);
            hi = hi.max(n.pos);
        }
        Some((lo, hi))
    }

    /// Mean kinetic energy per node — the convergence measure.
    pub fn kinetic_energy(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.vel.length_sq()).sum::<f64>() / self.nodes.len() as f64
    }

    fn apply_forces(&mut self, forces: &[Vec2]) -> f64 {
        // Watchdog gate: one non-finite force poisons every position it
        // touches, so the whole frame is discarded and the layout
        // freezes on the last healthy state.
        if forces.iter().any(|f| !(f.x.is_finite() && f.y.is_finite())) {
            self.freeze(FreezeReason::NonFiniteForce);
            self.steps += 1;
            return 0.0;
        }
        let cfg = self.config;
        let mut max_disp: f64 = 0.0;
        let mut capped = 0usize;
        let mut movable = 0usize;
        for (n, &f) in self.nodes.iter_mut().zip(forces) {
            if n.pinned {
                n.vel = Vec2::default();
                continue;
            }
            movable += 1;
            n.vel = (n.vel + f * cfg.dt) * cfg.damping;
            let mut disp = n.vel * cfg.dt;
            let d = disp.length();
            if d > cfg.max_displacement {
                disp = disp * (cfg.max_displacement / d);
                capped += 1;
            }
            n.pos += disp;
            debug_assert!(
                n.pos.x.is_finite() && n.pos.y.is_finite(),
                "step produced a non-finite position for {:?}: {} (force {f})",
                n.key,
                n.pos,
            );
            max_disp = max_disp.max(disp.length());
        }
        self.steps += 1;
        // Iteration watchdog: a simulation whose every movable node
        // rides the displacement cap, step after step, is accelerating
        // without bound — freeze before coordinates overflow. The
        // signal is deterministic (pure f64 arithmetic, no clocks), so
        // frozen-or-not is reproducible across machines.
        if movable > 0 && capped == movable {
            self.at_cap_streak += 1;
            if self.at_cap_streak >= RUNAWAY_STREAK {
                self.freeze(FreezeReason::RunawayDisplacement);
            }
        } else {
            self.at_cap_streak = 0;
        }
        max_disp
    }

    fn spring_forces(&self, forces: &mut [Vec2]) {
        let cfg = &self.config;
        for &(a, b) in &self.edges {
            let (ia, ib) = (self.slots[a.0 as usize] as usize, self.slots[b.0 as usize] as usize);
            let f = spring_force(
                self.nodes[ia].pos,
                self.nodes[ib].pos,
                cfg.spring,
                cfg.spring_length,
            );
            forces[ia] += f;
            forces[ib] -= f;
        }
    }

    /// Fills `forces` with Barnes-Hut repulsion on `threads` workers and
    /// returns the number of Coulomb evaluations performed. Each worker
    /// owns a disjoint chunk of the output slice and reads the shared
    /// quadtree, so the forces do not depend on the thread count — no
    /// reduction across threads ever happens — and the tally is an
    /// integer sum, which is order-independent.
    fn repulsion_pass(&self, tree: &QuadTree, threads: usize, forces: &mut [Vec2]) -> u64 {
        let cfg = &self.config;
        let chunk = |base: usize, fs: &mut [Vec2], ns: &[Node]| {
            let mut visits = 0;
            for (j, (f, node)) in fs.iter_mut().zip(ns).enumerate() {
                let (force, v) =
                    tree.repulsion(node.pos, node.charge, base + j, cfg.theta, cfg.min_distance);
                *f = force * cfg.repulsion;
                visits += v;
            }
            visits
        };
        if threads <= 1 {
            return chunk(0, forces, &self.nodes);
        }
        let len = self.nodes.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            let workers: Vec<_> = forces
                .chunks_mut(len)
                .zip(self.nodes.chunks(len))
                .enumerate()
                .map(|(ci, (fs, ns))| s.spawn(move || chunk(ci * len, fs, ns)))
                .collect();
            workers.into_iter().map(|w| w.join().expect("repulsion worker panicked")).sum()
        })
    }

    /// One Barnes-Hut iteration (`O(n log n)`; the repulsion pass runs
    /// on every core once the layout has 1,024 nodes). Returns the
    /// largest node displacement, usable as a convergence measure.
    ///
    /// Never panics: slider values are repaired via
    /// [`LayoutConfig::sanitized`], and pathological dynamics freeze
    /// the layout (see [`FreezeReason`]) instead of diverging. A frozen
    /// layout returns `0.0` without touching any position.
    pub fn step(&mut self) -> f64 {
        self.step_with(thread_plan(self.nodes.len()))
    }

    /// [`step`](LayoutEngine::step) with the repulsion pass on exactly
    /// `threads` workers.
    fn step_with(&mut self, threads: usize) -> f64 {
        if self.frozen.is_some() {
            return 0.0;
        }
        let _phase = self.obs.as_ref().map(|o| o.recorder.phase("layout.step"));
        self.config = self.config.sanitized();
        let points: Vec<(Vec2, f64)> = self.nodes.iter().map(|n| (n.pos, n.charge)).collect();
        let tree = QuadTree::build(&points);
        let mut forces = vec![Vec2::default(); self.nodes.len()];
        let visits = self.repulsion_pass(&tree, threads, &mut forces);
        self.spring_forces(&mut forces);
        let max_disp = self.apply_forces(&forces);
        self.record_step(max_disp, visits);
        max_disp
    }

    /// One exact iteration (`O(n²)`); the scalability baseline. Same
    /// panic-free and watchdog semantics as
    /// [`step`](LayoutEngine::step).
    pub fn step_naive(&mut self) -> f64 {
        if self.frozen.is_some() {
            return 0.0;
        }
        let _phase = self.obs.as_ref().map(|o| o.recorder.phase("layout.step"));
        self.config = self.config.sanitized();
        let cfg = self.config;
        let points: Vec<(Vec2, f64)> = self.nodes.iter().map(|n| (n.pos, n.charge)).collect();
        let mut forces = vec![Vec2::default(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            forces[i] =
                naive_repulsion(&points, n.pos, n.charge, i, cfg.min_distance) * cfg.repulsion;
        }
        self.spring_forces(&mut forces);
        let max_disp = self.apply_forces(&forces);
        // The naive pass visits every pair by construction.
        let n = self.nodes.len() as u64;
        self.record_step(max_disp, n.saturating_mul(n.saturating_sub(1)));
        max_disp
    }

    /// Post-step metric tail (no-op unless a recorder is wired): work
    /// counters plus the two convergence gauges. All values are pure
    /// model quantities — deterministic across machines.
    fn record_step(&self, max_disp: f64, visits: u64) {
        if let Some(obs) = &self.obs {
            let n = self.nodes.len() as u64;
            obs.steps.inc();
            obs.cell_visits.add(visits);
            obs.naive_pairs.add(n.saturating_mul(n.saturating_sub(1)));
            obs.kinetic.set(self.kinetic_energy());
            obs.max_disp.set(max_disp);
        }
    }

    /// Iterates until the largest displacement falls below `tol` or
    /// `max_steps` is reached. Returns the number of steps taken.
    pub fn run(&mut self, max_steps: usize, tol: f64) -> usize {
        for i in 0..max_steps {
            if self.step() < tol {
                return i + 1;
            }
        }
        max_steps
    }

    /// Collapses `members` into a single aggregated node `key`, placed
    /// at the members' charge-weighted barycenter, with charge equal to
    /// the **sum** of member charges (paper §4.2). Edges incident to a
    /// member are re-attached to the aggregate (edges between two
    /// members vanish). Unknown members are ignored.
    ///
    /// The barycenter placement is what makes collapsing visually
    /// smooth: the new node appears exactly where the group's visual
    /// mass was.
    ///
    /// # Panics
    ///
    /// Panics when `key` already exists and is not itself a member.
    pub fn merge_nodes(&mut self, key: NodeKey, members: &[NodeKey]) {
        assert!(
            self.slot(key).is_none() || members.contains(&key),
            "aggregate key {key:?} already present"
        );
        let mut total_charge = 0.0;
        let mut weighted = Vec2::default();
        let mut count = 0usize;
        for &m in members {
            let Some(i) = self.slot(m) else { continue };
            let n = &mut self.nodes[i];
            total_charge += n.charge;
            weighted += n.pos * n.charge.max(1e-12);
            count += 1;
            n.merging = true;
        }
        if count == 0 {
            return;
        }
        let denom: f64 = members
            .iter()
            .filter_map(|&m| self.slot(m))
            .map(|i| self.nodes[i].charge.max(1e-12))
            .sum();
        let barycenter = weighted / denom;
        // Detach the group, visiting each incident edge once: drop every
        // edge that touches a member and remember the outside endpoints.
        let mut neighbours: Vec<NodeKey> = Vec::new();
        for &m in members {
            for nb in self.take_incident(m) {
                self.edges.remove(&Self::edge_key(m, nb));
                if !self.nodes[self.slots[nb.0 as usize] as usize].merging {
                    neighbours.push(nb);
                }
            }
        }
        neighbours.sort();
        neighbours.dedup();
        let (slots, nodes) = (&self.slots, &self.nodes);
        for nb in &neighbours {
            self.adjacency[nb.0 as usize].retain(|k| !nodes[slots[k.0 as usize] as usize].merging);
        }
        for &m in members {
            self.remove_node(m);
        }
        self.add_node_at(key, total_charge, barycenter);
        for nb in neighbours {
            if self.slot(nb).is_some() {
                self.add_edge(key, nb);
            }
        }
    }

    /// Expands an aggregated node into `children` (key + charge each),
    /// placed on a small deterministic ring around the parent position
    /// so the force simulation can separate them smoothly. Edges of the
    /// parent are dropped (the caller rewires edges from its model).
    /// Returns `false` when `key` is unknown.
    pub fn split_node(&mut self, key: NodeKey, children: &[(NodeKey, f64)]) -> bool {
        let Some(pos) = self.position(key) else {
            return false;
        };
        self.remove_node(key);
        let r = self.config.spring_length * 0.25;
        let n = children.len().max(1) as f64;
        for (i, &(child, charge)) in children.iter().enumerate() {
            let angle = std::f64::consts::TAU * i as f64 / n;
            let offset = Vec2::new(angle.cos(), angle.sin()) * r;
            self.add_node_at(child, charge, pos + offset);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> LayoutEngine {
        LayoutEngine::new(LayoutConfig::default(), 42)
    }

    #[test]
    fn add_remove_nodes_and_edges() {
        let mut e = engine();
        assert!(e.add_node(NodeKey(1), 1.0));
        assert!(!e.add_node(NodeKey(1), 2.0), "duplicate rejected");
        assert!(e.add_node(NodeKey(2), 1.0));
        assert!(e.add_edge(NodeKey(1), NodeKey(2)));
        assert!(!e.add_edge(NodeKey(2), NodeKey(1)), "undirected dedup");
        assert!(!e.add_edge(NodeKey(1), NodeKey(1)), "self edge ignored");
        assert_eq!(e.len(), 2);
        assert_eq!(e.edge_count(), 1);
        assert!(e.remove_node(NodeKey(1)));
        assert_eq!(e.edge_count(), 0, "incident edges removed");
        assert!(!e.remove_node(NodeKey(1)));
    }

    #[test]
    fn two_connected_nodes_settle_near_spring_length() {
        let mut e = engine();
        e.add_node_at(NodeKey(1), 1.0, Vec2::new(0.0, 0.0));
        e.add_node_at(NodeKey(2), 1.0, Vec2::new(1.0, 0.0));
        e.add_edge(NodeKey(1), NodeKey(2));
        e.run(2000, 1e-7);
        let d = e
            .position(NodeKey(1))
            .unwrap()
            .distance(e.position(NodeKey(2)).unwrap());
        // Equilibrium: spring pull == charge push, slightly beyond L.
        assert!(d > e.config().spring_length * 0.9, "d = {d}");
        assert!(d < e.config().spring_length * 3.0, "d = {d}");
    }

    #[test]
    fn disconnected_nodes_repel() {
        let mut e = engine();
        e.add_node_at(NodeKey(1), 1.0, Vec2::new(0.0, 0.0));
        e.add_node_at(NodeKey(2), 1.0, Vec2::new(0.5, 0.0));
        for _ in 0..200 {
            e.step();
        }
        let d = e
            .position(NodeKey(1))
            .unwrap()
            .distance(e.position(NodeKey(2)).unwrap());
        assert!(d > 5.0, "nodes should fly apart, d = {d}");
    }

    #[test]
    fn pinned_node_does_not_move() {
        let mut e = engine();
        e.add_node_at(NodeKey(1), 1.0, Vec2::new(0.0, 0.0));
        e.add_node_at(NodeKey(2), 1.0, Vec2::new(1.0, 0.0));
        e.pin(NodeKey(1));
        assert!(e.is_pinned(NodeKey(1)));
        for _ in 0..100 {
            e.step();
        }
        assert_eq!(e.position(NodeKey(1)).unwrap(), Vec2::new(0.0, 0.0));
        e.unpin(NodeKey(1));
        e.step();
        assert_ne!(e.position(NodeKey(1)).unwrap(), Vec2::new(0.0, 0.0));
    }

    #[test]
    fn move_node_drags_neighbours() {
        let mut e = engine();
        e.add_node_at(NodeKey(1), 1.0, Vec2::new(0.0, 0.0));
        e.add_node_at(NodeKey(2), 1.0, Vec2::new(10.0, 0.0));
        e.add_edge(NodeKey(1), NodeKey(2));
        e.run(500, 1e-6);
        // Drag node 1 far away; its neighbour must follow.
        e.move_node(NodeKey(1), Vec2::new(200.0, 200.0));
        e.pin(NodeKey(1));
        e.run(3000, 1e-6);
        let p2 = e.position(NodeKey(2)).unwrap();
        assert!(
            p2.distance(Vec2::new(200.0, 200.0)) < 40.0,
            "neighbour at {p2} did not follow"
        );
    }

    #[test]
    fn determinism_same_seed_same_layout() {
        let build = || {
            let mut e = engine();
            for i in 0..20 {
                e.add_node(NodeKey(i), 1.0 + i as f64 * 0.1);
            }
            for i in 0..19 {
                e.add_edge(NodeKey(i), NodeKey(i + 1));
            }
            e.run(200, 1e-9);
            e.positions().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn naive_and_bh_agree_on_small_graphs() {
        let mut a = engine();
        let mut b = engine();
        a.config_mut().theta = 0.0; // exact BH
        for e in [&mut a, &mut b] {
            e.add_node_at(NodeKey(1), 1.0, Vec2::new(0.0, 0.0));
            e.add_node_at(NodeKey(2), 2.0, Vec2::new(7.0, 1.0));
            e.add_node_at(NodeKey(3), 1.5, Vec2::new(-3.0, 4.0));
            e.add_edge(NodeKey(1), NodeKey(2));
        }
        for _ in 0..50 {
            a.step();
            b.step_naive();
        }
        for k in [NodeKey(1), NodeKey(2), NodeKey(3)] {
            let pa = a.position(k).unwrap();
            let pb = b.position(k).unwrap();
            assert!((pa - pb).length() < 1e-6, "{k:?}: {pa} vs {pb}");
        }
    }

    #[test]
    fn merge_places_aggregate_at_barycenter_with_summed_charge() {
        let mut e = engine();
        e.add_node_at(NodeKey(1), 2.0, Vec2::new(0.0, 0.0));
        e.add_node_at(NodeKey(2), 2.0, Vec2::new(10.0, 0.0));
        e.add_node_at(NodeKey(3), 1.0, Vec2::new(100.0, 100.0));
        e.add_edge(NodeKey(1), NodeKey(3));
        e.add_edge(NodeKey(1), NodeKey(2)); // internal edge: vanishes
        e.merge_nodes(NodeKey(99), &[NodeKey(1), NodeKey(2)]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.charge(NodeKey(99)), Some(4.0), "charge is the sum (§4.2)");
        assert_eq!(e.position(NodeKey(99)), Some(Vec2::new(5.0, 0.0)));
        assert!(e.has_edge(NodeKey(99), NodeKey(3)), "external edge re-attached");
        assert_eq!(e.edge_count(), 1);
    }

    #[test]
    fn split_spawns_children_around_parent() {
        let mut e = engine();
        e.add_node_at(NodeKey(99), 4.0, Vec2::new(5.0, 5.0));
        assert!(e.split_node(NodeKey(99), &[(NodeKey(1), 2.0), (NodeKey(2), 2.0)]));
        assert_eq!(e.len(), 2);
        assert!(e.position(NodeKey(99)).is_none());
        for k in [NodeKey(1), NodeKey(2)] {
            let p = e.position(k).unwrap();
            assert!(p.distance(Vec2::new(5.0, 5.0)) < e.config().spring_length);
        }
        assert!(!e.split_node(NodeKey(98), &[]), "unknown parent");
    }

    #[test]
    fn merge_then_split_roundtrip_is_smooth() {
        let mut e = engine();
        for i in 0..6 {
            e.add_node(NodeKey(i), 1.0);
        }
        for i in 0..5 {
            e.add_edge(NodeKey(i), NodeKey(i + 1));
        }
        e.run(300, 1e-6);
        let before = e.position(NodeKey(2)).unwrap();
        e.merge_nodes(NodeKey(100), &[NodeKey(2), NodeKey(3)]);
        let agg = e.position(NodeKey(100)).unwrap();
        // Aggregate appears between its members, near where they were.
        assert!(agg.distance(before) < e.config().spring_length * 4.0);
        e.split_node(NodeKey(100), &[(NodeKey(2), 1.0), (NodeKey(3), 1.0)]);
        let after = e.position(NodeKey(2)).unwrap();
        assert!(after.distance(agg) < e.config().spring_length);
    }

    #[test]
    fn coincident_nodes_separate_without_nans() {
        // A pile of nodes dropped at the same position (a collapsed
        // aggregate being expanded, or a degenerate trace) must fan out
        // instead of dividing by zero or marching in lockstep.
        let p = Vec2::new(3.0, -2.0);
        for naive in [false, true] {
            let mut e = engine();
            for i in 0..8 {
                e.add_node_at(NodeKey(i), 1.0, p);
            }
            for _ in 0..100 {
                if naive {
                    e.step_naive();
                } else {
                    e.step();
                }
            }
            let pos: Vec<Vec2> = e.positions().map(|(_, p)| p).collect();
            for p in &pos {
                assert!(p.x.is_finite() && p.y.is_finite(), "non-finite {p}");
            }
            for i in 0..pos.len() {
                for j in 0..i {
                    assert!(
                        pos[i].distance(pos[j]) > 1.0,
                        "nodes {i}/{j} still coincident at {} / {}",
                        pos[i],
                        pos[j]
                    );
                }
            }
        }
    }

    /// The parallel force pass produces byte-identical layouts to the
    /// serial pass, whatever the thread count or chunking.
    #[test]
    fn parallel_repulsion_is_byte_identical_to_serial() {
        let build = |threads: usize| {
            let mut e = engine();
            for i in 0..300 {
                e.add_node(NodeKey(i), 1.0 + (i % 7) as f64 * 0.3);
            }
            for i in 0..299 {
                if i % 3 != 0 {
                    e.add_edge(NodeKey(i), NodeKey(i + 1));
                }
            }
            for _ in 0..40 {
                e.step_with(threads);
            }
            e.positions().collect::<Vec<_>>()
        };
        let serial = build(1);
        // Even splits, ragged splits, more threads than cores: all must
        // match the serial pass exactly (f64 equality, i.e. bit-for-bit
        // for finite values).
        for threads in [2, 3, 7, 16] {
            assert_eq!(serial, build(threads), "{threads} threads diverged");
        }
    }

    /// The thread plan stays serial below the threshold (500 hosts
    /// measured slower in parallel), never asks for more threads than
    /// there are nodes, and an oversized thread count never panics.
    #[test]
    fn parallelism_policy_is_clamped_and_readable() {
        assert_eq!(thread_plan(0), 1);
        assert_eq!(thread_plan(500), 1);
        assert_eq!(thread_plan(PARALLEL_THRESHOLD - 1), 1);
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        for n in [PARALLEL_THRESHOLD, 4_421, 100_000] {
            assert_eq!(thread_plan(n), cores.min(n));
            assert!((1..=n).contains(&thread_plan(n)));
        }
        // More threads than nodes (and no nodes at all) must not panic.
        let mut e = engine();
        e.step_with(16);
        e.add_node(NodeKey(1), 1.0);
        e.add_node(NodeKey(2), 1.0);
        e.step_with(16);
    }

    #[test]
    fn kinetic_energy_decreases_towards_convergence() {
        let mut e = engine();
        for i in 0..12 {
            e.add_node(NodeKey(i), 1.0);
        }
        for i in 0..11 {
            e.add_edge(NodeKey(i), NodeKey(i + 1));
        }
        for _ in 0..30 {
            e.step();
        }
        let early = e.kinetic_energy();
        for _ in 0..1000 {
            e.step();
        }
        let late = e.kinetic_energy();
        assert!(late < early, "energy should decay: {early} → {late}");
    }

    #[test]
    fn non_finite_charge_freezes_instead_of_panicking() {
        for naive in [false, true] {
            let mut e = engine();
            e.add_node_at(NodeKey(1), f64::NAN, Vec2::new(0.0, 0.0));
            e.add_node_at(NodeKey(2), 1.0, Vec2::new(1.0, 0.0));
            let d = if naive { e.step_naive() } else { e.step() };
            assert_eq!(d, 0.0);
            assert!(e.is_frozen());
            assert_eq!(e.freeze_reason(), Some(FreezeReason::NonFiniteForce));
            // The poisoned frame was discarded: positions are the last
            // healthy ones, still finite.
            assert_eq!(e.position(NodeKey(2)), Some(Vec2::new(1.0, 0.0)));
        }
    }

    #[test]
    fn frozen_layout_stops_moving_until_thawed() {
        let mut e = engine();
        e.add_node_at(NodeKey(1), f64::INFINITY, Vec2::new(0.0, 0.0));
        e.add_node_at(NodeKey(2), 1.0, Vec2::new(1.0, 0.0));
        e.step();
        assert!(e.is_frozen());
        let before: Vec<_> = e.positions().collect();
        for _ in 0..10 {
            assert_eq!(e.step(), 0.0, "frozen step is a no-op");
        }
        assert_eq!(before, e.positions().collect::<Vec<_>>());
        // Repair the bad charge and thaw: the simulation resumes.
        e.set_charge(NodeKey(1), 1.0);
        e.thaw();
        assert!(!e.is_frozen());
        assert!(e.step() > 0.0, "thawed layout moves again");
        for (_, p) in e.positions() {
            assert!(p.x.is_finite() && p.y.is_finite());
        }
    }

    #[test]
    fn runaway_displacement_freezes_deterministically() {
        // damping = 1 keeps all injected energy; an absurd spring
        // constant on a massively stretched edge then pumps the pair
        // into a permanent max-displacement oscillation — the classic
        // diverging-layout failure mode.
        let cfg = LayoutConfig {
            damping: 1.0,
            spring: 1e12,
            repulsion: 0.0,
            ..Default::default()
        };
        let mut e = LayoutEngine::new(cfg, 1);
        e.add_node_at(NodeKey(1), 1.0, Vec2::new(0.0, 0.0));
        e.add_node_at(NodeKey(2), 1.0, Vec2::new(1e6, 0.0));
        e.add_edge(NodeKey(1), NodeKey(2));
        let mut frozen_at = None;
        for i in 0..2000 {
            e.step();
            if e.is_frozen() {
                frozen_at = Some(i);
                break;
            }
        }
        assert!(frozen_at.is_some(), "watchdog never fired");
        assert_eq!(e.freeze_reason(), Some(FreezeReason::RunawayDisplacement));
        for (_, p) in e.positions() {
            assert!(p.x.is_finite() && p.y.is_finite(), "froze too late: {p}");
        }
        // The signal is pure arithmetic: a second run freezes at the
        // same step.
        let mut e2 = LayoutEngine::new(cfg, 1);
        e2.add_node_at(NodeKey(1), 1.0, Vec2::new(0.0, 0.0));
        e2.add_node_at(NodeKey(2), 1.0, Vec2::new(1e6, 0.0));
        e2.add_edge(NodeKey(1), NodeKey(2));
        let mut frozen_at2 = None;
        for i in 0..2000 {
            e2.step();
            if e2.is_frozen() {
                frozen_at2 = Some(i);
                break;
            }
        }
        assert_eq!(frozen_at, frozen_at2);
    }

    #[test]
    fn freeze_keeps_the_last_frame_and_thaw_resumes() {
        let mut e = engine();
        e.add_node(NodeKey(1), f64::NAN);
        e.add_node(NodeKey(2), 1.0);
        e.step();
        assert_eq!(e.freeze_reason(), Some(FreezeReason::NonFiniteForce));
        // The last healthy frame is kept.
        for (_, p) in e.positions() {
            assert!(p.x.is_finite() && p.y.is_finite());
        }
        e.set_charge(NodeKey(1), 1.0);
        e.thaw();
        e.step();
        assert!(!e.is_frozen());
    }

    #[test]
    fn hostile_config_is_sanitized_not_fatal() {
        // NaN sliders at construction and mid-flight: never a panic.
        let cfg = LayoutConfig { damping: f64::NAN, dt: -1.0, ..Default::default() };
        let mut e = LayoutEngine::new(cfg, 7);
        assert_eq!(e.config().damping, LayoutConfig::default().damping);
        e.add_node(NodeKey(1), 1.0);
        e.add_node(NodeKey(2), 1.0);
        e.config_mut().spring_length = f64::NAN;
        e.step();
        assert!(!e.is_frozen());
        assert_eq!(e.config().spring_length, LayoutConfig::default().spring_length);
        for (_, p) in e.positions() {
            assert!(p.x.is_finite() && p.y.is_finite());
        }
    }

    #[test]
    fn move_node_rejects_non_finite_positions() {
        let mut e = engine();
        e.add_node_at(NodeKey(1), 1.0, Vec2::new(2.0, 3.0));
        assert!(!e.move_node(NodeKey(1), Vec2::new(f64::NAN, 0.0)));
        assert!(!e.move_node(NodeKey(1), Vec2::new(0.0, f64::INFINITY)));
        assert_eq!(e.position(NodeKey(1)), Some(Vec2::new(2.0, 3.0)));
        assert!(e.move_node(NodeKey(1), Vec2::new(5.0, 5.0)));
    }

    #[test]
    fn recorder_observes_steps_and_freezes_without_changing_the_layout() {
        let drive = |recorder: Option<Recorder>| {
            let mut e = engine();
            if let Some(r) = recorder {
                e.set_recorder(r);
            }
            for i in 0..30 {
                e.add_node(NodeKey(i), 1.0);
            }
            for i in 0..29 {
                e.add_edge(NodeKey(i), NodeKey(i + 1));
            }
            for _ in 0..25 {
                e.step();
            }
            e.positions().collect::<Vec<_>>()
        };
        let r = Recorder::enabled();
        let observed = drive(Some(r.clone()));
        let plain = drive(None);
        assert_eq!(observed, plain, "metrics must not perturb the simulation");

        assert_eq!(r.counter("layout.steps").get(), 25);
        assert!(r.counter("layout.bh.cell_visits").get() > 0);
        assert_eq!(r.counter("layout.bh.naive_pairs").get(), 25 * 30 * 29);
        assert!(r.gauge("layout.kinetic_energy").get() > 0.0);
        assert_eq!(r.histogram("layout.step.seconds").count(), 25);

        // Freeze + thaw leave an event trail and bump the counter.
        let r2 = Recorder::enabled();
        let mut e = engine();
        e.set_recorder(r2.clone());
        e.add_node_at(NodeKey(1), f64::NAN, Vec2::new(0.0, 0.0));
        e.add_node_at(NodeKey(2), 1.0, Vec2::new(1.0, 0.0));
        e.step();
        assert_eq!(r2.counter("layout.freezes").get(), 1);
        e.step(); // frozen no-op: no double count
        assert_eq!(r2.counter("layout.freezes").get(), 1);
        e.thaw();
        let events = r2.snapshot().events;
        let names: Vec<_> = events.iter().map(|ev| ev.name.as_str()).collect();
        assert_eq!(names, ["layout.freeze", "layout.thaw"]);
        assert_eq!(events[0].detail, "non_finite_force");

        // Disabled recorders are discarded outright.
        let mut e = engine();
        e.set_recorder(Recorder::disabled());
        e.add_node(NodeKey(1), 1.0);
        e.step();
    }

    #[test]
    fn bounds_cover_all_nodes() {
        let mut e = engine();
        assert!(e.bounds().is_none());
        e.add_node_at(NodeKey(1), 1.0, Vec2::new(-5.0, 2.0));
        e.add_node_at(NodeKey(2), 1.0, Vec2::new(7.0, -3.0));
        let (lo, hi) = e.bounds().unwrap();
        assert_eq!(lo, Vec2::new(-5.0, -3.0));
        assert_eq!(hi, Vec2::new(7.0, 2.0));
    }
}
