//! The computed scene: what a topology view draws for one time-slice.
//!
//! [`GraphView`] is a pure description — node shapes, pixel sizes,
//! fill fractions, positions, edges — produced from a trace and its
//! aggregation index, the collapse state, the time-slice, the visual
//! mapping and the scaling configuration. Rendering (SVG) and
//! interaction (sessions) live elsewhere; tests can assert on views
//! directly.

use std::collections::HashMap;

use viva_agg::{AggIndex, TimeSlice, ViewState};
use viva_layout::Vec2;
use viva_trace::{ContainerId, ContainerKind, Trace};

use crate::mapping::{MappingConfig, Shape};
use crate::scaling::ScalingConfig;

/// The separately-aggregated *link* content of a collapsed group.
///
/// Paper Fig. 3: a collapsed group "combines a square, representing all
/// hosts, and a diamond, representing all links". The square is the
/// [`ViewNode`] itself; this badge is the diamond.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkBadge {
    /// Aggregated link capacity (time-mean, summed over member links).
    pub size_value: f64,
    /// Aggregated link utilization.
    pub fill_value: f64,
    /// `fill_value / size_value`, clamped to `[0, 1]`.
    pub fill_fraction: f64,
    /// Screen size, scaled within the link size group.
    pub px_size: f64,
}

/// One drawn node.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewNode {
    /// The container this node represents (a leaf, or a collapsed
    /// group standing for its whole subtree).
    pub container: ContainerId,
    /// Display name.
    pub label: String,
    /// Container kind (drives mapping and color).
    pub kind: ContainerKind,
    /// Geometric shape.
    pub shape: Shape,
    /// Aggregated size-metric value (time-mean over the slice, summed
    /// over members), in metric units.
    pub size_value: f64,
    /// Aggregated fill-metric value, in metric units.
    pub fill_value: f64,
    /// `fill_value / size_value`, clamped to `[0, 1]`.
    pub fill_fraction: f64,
    /// Screen size in pixels (post scaling and sliders).
    pub px_size: f64,
    /// Layout position.
    pub position: Vec2,
    /// Number of leaf containers aggregated into this node (1 for a
    /// plain leaf).
    pub members: usize,
    /// Link aggregate of a collapsed group, when it contains links.
    pub link_badge: Option<LinkBadge>,
    /// Pie-chart segments: `(metric name, share)` with shares summing
    /// to 1, computed from the session's *breakdown metrics* (e.g. one
    /// `power_used:{app}` metric per competing application). Empty when
    /// no breakdown is configured or nothing accumulated. This is the
    /// paper's §6 "pie-charts" extension.
    pub segments: Vec<(String, f64)>,
    /// Mean availability of this node's members over the slice, in
    /// `[0, 1]`: the time-mean of the fault-injection `available`
    /// signal, averaged over the members carrying it. `1.0` when the
    /// trace records no availability (non-fault traces render
    /// unchanged); below `1.0` the node spent part of the slice down,
    /// `0.0` means down for the whole slice.
    pub availability: f64,
    /// Number of non-finite metric samples quarantined at ingest under
    /// this node's subtree, summed over all metrics. Slice-independent:
    /// quarantined samples never enter any signal, so this is a trust
    /// annotation ("values here were computed from incomplete data"),
    /// not a time-dependent aggregate.
    pub quarantined: u64,
}

impl ViewNode {
    /// Whether this node (or, for an aggregate, part of its members)
    /// was unavailable at some point during the slice.
    pub fn is_degraded(&self) -> bool {
        self.availability < 1.0
    }
}

/// One drawn edge (between two visible nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ViewEdge {
    /// First endpoint.
    pub a: ContainerId,
    /// Second endpoint.
    pub b: ContainerId,
}

/// One aggregate **tile** of a level-of-detail render: a whole subtree
/// that the camera's resolution (or the canvas edge) collapsed into a
/// single glyph. Its values aggregate exactly what an explicit
/// collapse of [`ViewTile::container`] would show — Equation 1 over
/// the subtree and slice, one `O(log n)` index query per metric.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewTile {
    /// Root of the tiled subtree.
    pub container: ContainerId,
    /// Display name of the root.
    pub label: String,
    /// Root container kind (drives the glyph color).
    pub kind: ContainerKind,
    /// Number of visible-frontier nodes the tile absorbed — the
    /// "count" the glyph displays.
    pub nodes: usize,
    /// Aggregated size-metric value (time-mean over the slice, summed
    /// over members), in metric units.
    pub size_value: f64,
    /// Aggregated fill-metric value, in metric units.
    pub fill_value: f64,
    /// `fill_value / size_value`, clamped to `[0, 1]` — the subtree's
    /// mean utilization.
    pub fill_fraction: f64,
    /// Breakdown-metric shares, exactly as a collapsed node's pie
    /// segments (see [`ViewNode::segments`]).
    pub segments: Vec<(String, f64)>,
    /// Mean availability of the subtree over the slice, in `[0, 1]`.
    pub availability: f64,
    /// Quarantined ingest samples under the subtree, all metrics.
    pub quarantined: u64,
    /// World-space bounding box of the absorbed nodes' positions —
    /// the tile's footprint.
    pub lo: Vec2,
    /// See [`ViewTile::lo`].
    pub hi: Vec2,
    /// `true` when the subtree was tiled for lying fully outside the
    /// canvas rather than for being too small to read.
    pub offscreen: bool,
}

impl ViewTile {
    /// Whether part of the subtree was unavailable during the slice.
    pub fn is_degraded(&self) -> bool {
        self.availability < 1.0
    }
}

/// A complete scene for one time-slice.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphView {
    /// Drawn nodes, in container-id order.
    pub nodes: Vec<ViewNode>,
    /// Drawn edges (deduplicated, no self-loops).
    pub edges: Vec<ViewEdge>,
    /// Aggregate tiles of a level-of-detail render, in container-id
    /// order of their roots. Always empty on the classic (camera-less)
    /// path.
    pub tiles: Vec<ViewTile>,
    /// The time-slice the values were aggregated over.
    pub slice: TimeSlice,
    /// Events the lenient ingest path dropped while loading the trace
    /// this view draws from (`0` for cleanly-loaded or built traces).
    pub ingest_dropped: u64,
}

impl GraphView {
    /// Finds a node by container id.
    pub fn node(&self, container: ContainerId) -> Option<&ViewNode> {
        self.nodes.iter().find(|n| n.container == container)
    }

    /// Finds a level-of-detail tile by its root container id.
    pub fn tile(&self, container: ContainerId) -> Option<&ViewTile> {
        self.tiles.iter().find(|t| t.container == container)
    }

    /// Total quarantined samples across the visible frontier. Because
    /// the drawn nodes plus the level-of-detail tiles partition the
    /// container tree, this equals the trace-wide quarantine count.
    pub fn quarantined_total(&self) -> u64 {
        self.nodes.iter().map(|n| n.quarantined).sum::<u64>()
            + self.tiles.iter().map(|t| t.quarantined).sum::<u64>()
    }

    /// Whether this view draws data that survived a lossy ingest
    /// (dropped events or quarantined samples) — the renderer's cue to
    /// show the degraded-data badge.
    pub fn has_degraded_data(&self) -> bool {
        self.ingest_dropped > 0 || self.quarantined_total() > 0
    }

    /// Finds a node by label.
    pub fn node_by_label(&self, label: &str) -> Option<&ViewNode> {
        self.nodes.iter().find(|n| n.label == label)
    }

    /// Bounding box of node positions, `None` for an empty view.
    pub fn bounds(&self) -> Option<(Vec2, Vec2)> {
        let first = self.nodes.first()?.position;
        let mut lo = first;
        let mut hi = first;
        for n in &self.nodes {
            lo = lo.min(n.position);
            hi = hi.max(n.position);
        }
        Some((lo, hi))
    }
}

#[allow(clippy::manual_clamp)] // max-first normalizes -0.0, clamp keeps it
fn fraction(fill: f64, size: f64) -> f64 {
    if size > 0.0 {
        // `max` first: integration noise can yield -0.0 or tiny
        // negative fills, which would print as "-0%".
        (fill / size).max(0.0).min(1.0)
    } else {
        0.0
    }
}

/// The cacheable, slice-dependent aggregation result of one visible
/// container — everything the scene's first pass computes before the
/// whole-frontier pixel scaling. A session caches these per container
/// and invalidates them on slice/collapse/mapping changes, so a
/// collapse only recomputes the affected subtree's entries.
#[derive(Debug, Clone)]
pub(crate) struct NodePartial {
    kind: ContainerKind,
    shape: Shape,
    size_value: f64,
    fill_value: f64,
    members: usize,
    badge: Option<(f64, f64)>, // (size_value, fill_value)
    segments: Vec<(String, f64)>,
    availability: f64,
    quarantined: u64,
}

/// First-pass aggregation of one visible container (Equation 1 per
/// mapped metric, badge, pie segments, availability), every query an
/// `O(log n)` lookup against `index`.
pub(crate) fn compute_partial(
    trace: &Trace,
    state: &ViewState,
    slice: TimeSlice,
    mapping: &MappingConfig,
    breakdown: &[String],
    index: &AggIndex,
    c: ContainerId,
) -> NodePartial {
    let tree = trace.containers();
    let width = slice.width();
    let node = tree.node(c);
    let kind = node.kind();
    let rule = mapping.rule(kind);
    let norm = |v: f64| if width > 0.0 { v / width } else { 0.0 };
    let (size_value, members) = match rule.size_metric.as_deref().and_then(|n| trace.metric_id(n)) {
        Some(m) => (
            norm(index.integrate(m, c, slice)),
            index.carrier_count(m, c).max(1),
        ),
        None => (0.0, 1),
    };
    let fill_value = rule
        .fill_metric
        .as_deref()
        .and_then(|n| trace.metric_id(n))
        .map_or(0.0, |m| norm(index.integrate(m, c, slice)));
    // A collapsed group that contains links gets the Fig. 3 diamond
    // badge, aggregated with the Link mapping.
    let badge = if kind.is_grouping() && state.is_collapsed(c) && width > 0.0 {
        let link_rule = mapping.rule(ContainerKind::Link);
        link_rule
            .size_metric
            .as_deref()
            .and_then(|n| trace.metric_id(n))
            .filter(|&m| index.carrier_count(m, c) > 0)
            .map(|m| {
                let bs = norm(index.integrate(m, c, slice));
                let bf = link_rule
                    .fill_metric
                    .as_deref()
                    .and_then(|n| trace.metric_id(n))
                    .map_or(0.0, |fm| norm(index.integrate(fm, c, slice)));
                (bs, bf)
            })
    } else {
        None
    };
    // §6 pie charts: share of each breakdown metric on this node.
    let mut segments: Vec<(String, f64)> = breakdown
        .iter()
        .filter_map(|name| {
            let m = trace.metric_id(name)?;
            let integral = index.integrate(m, c, slice);
            (integral > 0.0).then(|| (name.clone(), integral))
        })
        .collect();
    let seg_total: f64 = segments.iter().map(|(_, v)| v).sum();
    if seg_total > 0.0 {
        for (_, v) in segments.iter_mut() {
            *v /= seg_total;
        }
    }
    // Fault-injection first-class signal: how much of the slice the
    // members were up. Absent signal (a trace without fault
    // tracing) means "always up", not "down".
    let availability = trace
        .metric_id(viva_trace::metric::names::AVAILABILITY)
        .and_then(|m| index.try_mean(m, c, slice))
        .unwrap_or(1.0)
        .clamp(0.0, 1.0);
    NodePartial {
        kind,
        shape: rule.shape,
        size_value,
        fill_value,
        members,
        badge,
        segments,
        availability,
        quarantined: index.quarantined_under_all(c),
    }
}

/// Computes the scene for the visible frontier of `state`, drawing
/// every aggregate from `index` through a reusable per-container cache
/// of first-pass partials.
///
/// * `positions` supplies layout coordinates per visible container;
/// * `leaf_edges` are relationships between *leaf* containers (e.g.
///   host ↔ link adjacency derived from the platform, or communication
///   pairs); they are lifted through the collapse state to the visible
///   frontier, deduplicated, self-loops dropped;
/// * `breakdown` metrics (may be empty) fill each node's pie-chart
///   segments with their relative shares.
///
/// Only containers missing from `cache` are aggregated; the
/// whole-frontier pixel scaling (second pass) is recomputed every
/// time, since it depends on the frontier-wide maxima.
#[allow(clippy::too_many_arguments)] // one parameter per §3–§4 input
pub(crate) fn build_view_cached(
    trace: &Trace,
    state: &ViewState,
    slice: TimeSlice,
    mapping: &MappingConfig,
    scaling: &ScalingConfig,
    positions: &dyn Fn(ContainerId) -> Vec2,
    leaf_edges: &[(ContainerId, ContainerId)],
    breakdown: &[String],
    index: &AggIndex,
    cache: &mut HashMap<ContainerId, NodePartial>,
) -> GraphView {
    build_scene(
        trace, state, slice, mapping, scaling, positions, leaf_edges, breakdown, index, cache,
        None,
    )
}

/// [`build_view_cached`] under a level-of-detail cut: only the cut's
/// kept containers are aggregated and scaled as real nodes, every
/// [`crate::lod::TileSeed`] becomes a [`ViewTile`] (one cached
/// aggregate query on its root), and lifted edges whose endpoint was
/// absorbed into a tile re-anchor on that tile. With a cut that keeps
/// the whole frontier this is value-identical to [`build_view_cached`].
#[allow(clippy::too_many_arguments)] // one parameter per §3–§4 input
pub(crate) fn build_view_lod(
    trace: &Trace,
    state: &ViewState,
    slice: TimeSlice,
    mapping: &MappingConfig,
    scaling: &ScalingConfig,
    positions: &dyn Fn(ContainerId) -> Vec2,
    leaf_edges: &[(ContainerId, ContainerId)],
    breakdown: &[String],
    index: &AggIndex,
    cache: &mut HashMap<ContainerId, NodePartial>,
    cut: &crate::lod::LodCut,
) -> GraphView {
    build_scene(
        trace, state, slice, mapping, scaling, positions, leaf_edges, breakdown, index, cache,
        Some(cut),
    )
}

#[allow(clippy::too_many_arguments)] // one parameter per §3–§4 input
fn build_scene(
    trace: &Trace,
    state: &ViewState,
    slice: TimeSlice,
    mapping: &MappingConfig,
    scaling: &ScalingConfig,
    positions: &dyn Fn(ContainerId) -> Vec2,
    leaf_edges: &[(ContainerId, ContainerId)],
    breakdown: &[String],
    index: &AggIndex,
    cache: &mut HashMap<ContainerId, NodePartial>,
    cut: Option<&crate::lod::LodCut>,
) -> GraphView {
    let tree = trace.containers();
    let visible = match cut {
        None => state.visible(tree),
        Some(c) => c.keep.clone(),
    };

    // First pass: aggregate metric values per node (cached).
    let partials: Vec<(ContainerId, NodePartial)> = visible
        .iter()
        .map(|&c| {
            let p = cache
                .entry(c)
                .or_insert_with(|| compute_partial(trace, state, slice, mapping, breakdown, index, c));
            (c, p.clone())
        })
        .collect();

    // Second pass: per-size-group screen scaling (paper §4.1). Badge
    // sizes participate in the link group's scale.
    let mut groups: HashMap<String, Vec<f64>> = HashMap::new();
    for (_, p) in &partials {
        groups
            .entry(mapping.size_group(p.kind))
            .or_default()
            .push(p.size_value);
    }
    let link_group = mapping.size_group(ContainerKind::Link);
    for (_, p) in &partials {
        if let Some((bs, _)) = p.badge {
            groups.entry(link_group.clone()).or_default().push(bs);
        }
    }
    let scales: HashMap<String, f64> = groups
        .iter()
        .map(|(g, values)| {
            let max = values.iter().copied().fold(0.0f64, f64::max);
            let auto = if max > 0.0 { scaling.max_px / max } else { 0.0 };
            (g.clone(), auto * scaling.slider(g))
        })
        .collect();
    let px_of = |group: &str, value: f64| (value * scales[group]).max(scaling.min_px);

    let mut nodes: Vec<ViewNode> = partials
        .into_iter()
        .map(|(container, p)| {
            let group = mapping.size_group(p.kind);
            let link_badge = p.badge.map(|(bs, bf)| LinkBadge {
                size_value: bs,
                fill_value: bf,
                fill_fraction: fraction(bf, bs),
                px_size: px_of(&link_group, bs),
            });
            ViewNode {
                label: tree.node(container).name().to_owned(),
                kind: p.kind,
                shape: p.shape,
                fill_fraction: fraction(p.fill_value, p.size_value),
                px_size: px_of(&group, p.size_value),
                position: positions(container),
                members: p.members,
                link_badge,
                segments: p.segments,
                container,
                size_value: p.size_value,
                fill_value: p.fill_value,
                availability: p.availability,
                quarantined: p.quarantined,
            }
        })
        .collect();
    nodes.sort_by_key(|n| n.container);

    // Level-of-detail tiles: one cached subtree aggregate per seed.
    let tiles: Vec<ViewTile> = cut.map_or_else(Vec::new, |c| {
        c.tiles
            .iter()
            .map(|seed| {
                let p = cache
                    .entry(seed.root)
                    .or_insert_with(|| {
                        compute_partial(trace, state, slice, mapping, breakdown, index, seed.root)
                    })
                    .clone();
                ViewTile {
                    container: seed.root,
                    label: tree.node(seed.root).name().to_owned(),
                    kind: p.kind,
                    nodes: seed.nodes,
                    size_value: p.size_value,
                    fill_value: p.fill_value,
                    fill_fraction: fraction(p.fill_value, p.size_value),
                    segments: p.segments,
                    availability: p.availability,
                    quarantined: p.quarantined,
                    lo: seed.lo,
                    hi: seed.hi,
                    offscreen: seed.offscreen,
                }
            })
            .collect()
    });

    // Where a lifted edge endpoint is drawn: on itself (classic path,
    // or kept by the cut), or on the tile that absorbed it.
    let kept: Option<std::collections::HashSet<ContainerId>> =
        cut.map(|c| c.keep.iter().copied().collect());
    let tile_roots: Option<std::collections::HashSet<ContainerId>> =
        cut.map(|c| c.tiles.iter().map(|s| s.root).collect());
    let resolve = |r: ContainerId| -> Option<ContainerId> {
        let (Some(kept), Some(tile_roots)) = (&kept, &tile_roots) else {
            return Some(r);
        };
        if kept.contains(&r) {
            return Some(r);
        }
        let mut cur = Some(r);
        while let Some(g) = cur {
            if tile_roots.contains(&g) {
                return Some(g);
            }
            cur = tree.node(g).parent();
        }
        None
    };

    // Lift leaf edges to the visible frontier (then through the cut).
    let mut edges: Vec<ViewEdge> = leaf_edges
        .iter()
        .filter_map(|&(a, b)| {
            let ra = resolve(state.representative(tree, a)?)?;
            let rb = resolve(state.representative(tree, b)?)?;
            (ra != rb).then(|| {
                if ra <= rb {
                    ViewEdge { a: ra, b: rb }
                } else {
                    ViewEdge { a: rb, b: ra }
                }
            })
        })
        .collect();
    edges.sort_by_key(|e| (e.a, e.b));
    edges.dedup();

    GraphView { nodes, edges, tiles, slice, ingest_dropped: trace.ingest_dropped() }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use viva_agg::GroupAggregate;
    use viva_trace::TraceBuilder;

    /// The scene through a fresh [`AggIndex`] over `trace` and an empty
    /// cache — what a session computes on its first view.
    #[allow(clippy::too_many_arguments)] // mirrors `build_view_cached`
    pub(crate) fn build_view(
        trace: &Trace,
        state: &ViewState,
        slice: TimeSlice,
        mapping: &MappingConfig,
        scaling: &ScalingConfig,
        positions: &dyn Fn(ContainerId) -> Vec2,
        leaf_edges: &[(ContainerId, ContainerId)],
        breakdown: &[String],
    ) -> GraphView {
        build_view_cached(
            trace,
            state,
            slice,
            mapping,
            scaling,
            positions,
            leaf_edges,
            breakdown,
            &AggIndex::build(trace),
            &mut HashMap::new(),
        )
    }

    /// cluster(c1: h1 100/50 used, h2 25/25 used, l1 bw 1000/500 used)
    /// + cluster(c2: h3 200, idle).
    fn trace() -> Trace {
        let mut b = TraceBuilder::new();
        let c1 = b.new_container(b.root(), "c1", ContainerKind::Cluster).unwrap();
        let c2 = b.new_container(b.root(), "c2", ContainerKind::Cluster).unwrap();
        let h1 = b.new_container(c1, "h1", ContainerKind::Host).unwrap();
        let h2 = b.new_container(c1, "h2", ContainerKind::Host).unwrap();
        let l1 = b.new_container(c1, "l1", ContainerKind::Link).unwrap();
        let h3 = b.new_container(c2, "h3", ContainerKind::Host).unwrap();
        let power = b.metric("power", "MFlop/s");
        let used = b.metric("power_used", "MFlop/s");
        let bw = b.metric("bandwidth", "Mbit/s");
        let bw_used = b.metric("bandwidth_used", "Mbit/s");
        b.set_variable(0.0, h1, power, 100.0).unwrap();
        b.set_variable(0.0, h2, power, 25.0).unwrap();
        b.set_variable(0.0, h3, power, 200.0).unwrap();
        b.set_variable(0.0, h1, used, 50.0).unwrap();
        b.set_variable(0.0, h2, used, 25.0).unwrap();
        b.set_variable(0.0, l1, bw, 1000.0).unwrap();
        b.set_variable(0.0, l1, bw_used, 500.0).unwrap();
        b.finish(10.0)
    }

    fn make_view(state: &ViewState) -> GraphView {
        let t = trace();
        build_view(
            &t,
            state,
            TimeSlice::new(0.0, 10.0),
            &MappingConfig::default(),
            &ScalingConfig::default(),
            &|_| Vec2::default(),
            &[],
            &[],
        )
    }

    #[test]
    fn expanded_view_draws_leaves_with_paper_mapping() {
        let view = make_view(&ViewState::new());
        assert_eq!(view.nodes.len(), 4);
        let h1 = view.node_by_label("h1").unwrap();
        assert_eq!(h1.shape, Shape::Square);
        assert_eq!(h1.size_value, 100.0);
        assert_eq!(h1.fill_fraction, 0.5);
        let l1 = view.node_by_label("l1").unwrap();
        assert_eq!(l1.shape, Shape::Diamond);
        assert_eq!(l1.fill_fraction, 0.5);
        // h3 is the biggest host: it takes max_px; the link is the
        // biggest (only) of its own group: also max_px (§4.1).
        let h3 = view.node_by_label("h3").unwrap();
        assert_eq!(h3.px_size, 40.0);
        assert_eq!(l1.px_size, 40.0);
        assert_eq!(h1.px_size, 20.0);
        assert_eq!(h3.fill_fraction, 0.0, "no utilization signal");
    }

    #[test]
    fn collapsed_cluster_aggregates_hosts_and_badges_links() {
        let t = trace();
        let c1 = t.containers().by_name("c1").unwrap().id();
        let mut state = ViewState::new();
        state.collapse(c1);
        let view = make_view(&state);
        // c1 aggregate + h3 leaf.
        assert_eq!(view.nodes.len(), 2);
        let agg = view.node_by_label("c1").unwrap();
        assert_eq!(agg.size_value, 125.0, "sum of member host powers");
        assert_eq!(agg.fill_value, 75.0);
        assert_eq!(agg.fill_fraction, 0.6);
        assert_eq!(agg.members, 2);
        // §6 indicators over member means {50, 25} stay available on
        // demand (the view itself no longer carries them).
        let m = t.metric_id("power_used").unwrap();
        let slice = TimeSlice::new(t.start(), t.end());
        assert_eq!(GroupAggregate::compute(&t, m, c1, slice).summary.mean, 37.5);
        // Fig. 3 diamond badge for the aggregated link.
        let badge = agg.link_badge.as_ref().expect("cluster contains a link");
        assert_eq!(badge.size_value, 1000.0);
        assert_eq!(badge.fill_fraction, 0.5);
        // Leaf host gets no badge.
        assert!(view.node_by_label("h3").unwrap().link_badge.is_none());
    }

    #[test]
    fn edges_are_lifted_and_deduplicated() {
        let t = trace();
        let tree = t.containers();
        let c1 = tree.by_name("c1").unwrap().id();
        let h1 = tree.by_name("h1").unwrap().id();
        let h2 = tree.by_name("h2").unwrap().id();
        let l1 = tree.by_name("l1").unwrap().id();
        let h3 = tree.by_name("h3").unwrap().id();
        let leaf_edges = [(h1, l1), (h2, l1), (l1, h3)];

        // Expanded: all three edges survive.
        let view = build_view(
            &t,
            &ViewState::new(),
            TimeSlice::new(0.0, 10.0),
            &MappingConfig::default(),
            &ScalingConfig::default(),
            &|_| Vec2::default(),
            &leaf_edges,
            &[],
        );
        assert_eq!(view.edges.len(), 3);

        // Collapsed c1: h1-l1 and h2-l1 become internal (dropped),
        // l1-h3 lifts to c1-h3.
        let mut state = ViewState::new();
        state.collapse(c1);
        let view = build_view(
            &t,
            &state,
            TimeSlice::new(0.0, 10.0),
            &MappingConfig::default(),
            &ScalingConfig::default(),
            &|_| Vec2::default(),
            &leaf_edges,
            &[],
        );
        assert_eq!(view.edges, vec![ViewEdge { a: c1, b: h3 }]);
    }

    #[test]
    fn slice_restriction_changes_values() {
        let t = trace();
        let h1 = t.containers().by_name("h1").unwrap().id();
        // Utilization present for the whole span; a half-width slice
        // yields the same *mean* value.
        let view = build_view(
            &t,
            &ViewState::new(),
            TimeSlice::new(0.0, 5.0),
            &MappingConfig::default(),
            &ScalingConfig::default(),
            &|_| Vec2::default(),
            &[],
            &[],
        );
        assert_eq!(view.node(h1).unwrap().fill_value, 50.0);
        // An empty slice zeroes everything.
        let view = build_view(
            &t,
            &ViewState::new(),
            TimeSlice::new(3.0, 3.0),
            &MappingConfig::default(),
            &ScalingConfig::default(),
            &|_| Vec2::default(),
            &[],
            &[],
        );
        assert_eq!(view.node(h1).unwrap().size_value, 0.0);
        assert_eq!(view.node(h1).unwrap().px_size, 2.0, "min_px floor");
    }

    #[test]
    fn quarantine_counts_roll_up_to_the_collapsed_group() {
        use viva_trace::{RecoveryMode, TraceLoader};
        // NaNs on two hosts of the same cluster roll up to the
        // collapsed-group node.
        let text = "span,0,10\n\
                    container,1,0,cluster,c1\n\
                    container,2,1,host,h1\n\
                    container,3,1,host,h2\n\
                    container,4,0,host,h3\n\
                    metric,0,MFlop/s,power\n\
                    var,0.0,2,0,NaN\n\
                    var,0.0,3,0,inf\n\
                    var,1.0,3,0,NaN\n\
                    var,0.0,4,0,200.0\n";
        let t = TraceLoader::new()
            .mode(RecoveryMode::Lenient)
            .load_str(text)
            .unwrap()
            .trace;
        let c1 = t.containers().by_name("c1").unwrap().id();
        let mut state = ViewState::new();
        state.collapse(c1);
        let view = build_view(
            &t,
            &state,
            TimeSlice::new(0.0, 10.0),
            &MappingConfig::default(),
            &ScalingConfig::default(),
            &|_| Vec2::default(),
            &[],
            &[],
        );
        assert_eq!(view.node(c1).unwrap().quarantined, 3);
        assert_eq!(view.node_by_label("h3").unwrap().quarantined, 0);
        assert_eq!(view.quarantined_total(), 3);
        assert!(view.has_degraded_data());
        // Quarantined samples count as dropped events too (quarantine
        // is a subset of the drop ledger).
        assert_eq!(view.ingest_dropped, 3);
    }

    #[test]
    fn bounds_and_lookup() {
        let t = trace();
        let view = build_view(
            &t,
            &ViewState::new(),
            TimeSlice::new(0.0, 10.0),
            &MappingConfig::default(),
            &ScalingConfig::default(),
            &|c| Vec2::new(c.index() as f64, 0.0),
            &[],
            &[],
        );
        let (lo, hi) = view.bounds().unwrap();
        assert!(lo.x < hi.x);
        assert!(view.node_by_label("nope").is_none());
    }
}

#[cfg(test)]
mod breakdown_tests {
    use super::tests::build_view;
    use super::*;
    use viva_trace::TraceBuilder;

    #[test]
    fn segments_hold_normalized_shares() {
        let mut b = TraceBuilder::new();
        let cl = b.new_container(b.root(), "c", ContainerKind::Cluster).unwrap();
        let h = b.new_container(cl, "h", ContainerKind::Host).unwrap();
        let power = b.metric("power", "MFlop/s");
        let a1 = b.metric("power_used:app1", "MFlop/s");
        let a2 = b.metric("power_used:app2", "MFlop/s");
        b.set_variable(0.0, h, power, 100.0).unwrap();
        b.set_variable(0.0, h, a1, 30.0).unwrap();
        b.set_variable(0.0, h, a2, 10.0).unwrap();
        let t = b.finish(10.0);
        let view = build_view(
            &t,
            &ViewState::new(),
            TimeSlice::new(0.0, 10.0),
            &MappingConfig::default(),
            &ScalingConfig::default(),
            &|_| Vec2::default(),
            &[],
            &["power_used:app1".to_owned(), "power_used:app2".to_owned()],
        );
        let node = view.node_by_label("h").unwrap();
        assert_eq!(node.segments.len(), 2);
        assert_eq!(node.segments[0], ("power_used:app1".to_owned(), 0.75));
        assert_eq!(node.segments[1], ("power_used:app2".to_owned(), 0.25));

        // Collapsed group: shares aggregate over the subtree.
        let cl_id = t.containers().by_name("c").unwrap().id();
        let mut state = ViewState::new();
        state.collapse(cl_id);
        let view = build_view(
            &t,
            &state,
            TimeSlice::new(0.0, 10.0),
            &MappingConfig::default(),
            &ScalingConfig::default(),
            &|_| Vec2::default(),
            &[],
            &["power_used:app1".to_owned(), "power_used:app2".to_owned()],
        );
        assert_eq!(view.node(cl_id).unwrap().segments.len(), 2);

        // No breakdown configured: no segments.
        let view = build_view(
            &t,
            &ViewState::new(),
            TimeSlice::new(0.0, 10.0),
            &MappingConfig::default(),
            &ScalingConfig::default(),
            &|_| Vec2::default(),
            &[],
            &[],
        );
        assert!(view.node_by_label("h").unwrap().segments.is_empty());
    }
}
