//! Deterministic SVG rendering of [`GraphView`]s.
//!
//! The renderer draws exactly the paper's vocabulary: squares, diamonds
//! and circles with an optional proportional fill (a bottom-up filled
//! portion for squares, an inner scaled shape for diamonds/circles),
//! colored by container kind, connected by thin edges. Output is a
//! plain string, byte-stable for identical views — golden tests rely on
//! this.

use std::fmt::Write as _;

use viva_layout::Vec2;

use crate::color::kind_color;
use crate::mapping::Shape;
use crate::view::{GraphView, ViewNode, ViewTile};
use crate::viewport::{Theme, Viewport};

/// Rendering options.
#[derive(Debug, Clone, PartialEq)]
pub struct SvgOptions {
    /// Canvas width, pixels.
    pub width: f64,
    /// Canvas height, pixels.
    pub height: f64,
    /// Draw node labels.
    pub labels: bool,
    /// Padding around the drawing, pixels.
    pub padding: f64,
    /// Color theme.
    pub theme: Theme,
}

impl Default for SvgOptions {
    fn default() -> Self {
        SvgOptions {
            width: 800.0,
            height: 600.0,
            labels: false,
            padding: 30.0,
            theme: Theme::Light,
        }
    }
}

impl From<&Viewport> for SvgOptions {
    fn from(vp: &Viewport) -> SvgOptions {
        SvgOptions {
            width: vp.width,
            height: vp.height,
            labels: vp.labels,
            padding: vp.padding,
            theme: vp.theme,
        }
    }
}

/// Maps layout coordinates to the SVG viewport (uniform scale,
/// centered).
pub(crate) struct Projection {
    scale: f64,
    offset: Vec2,
}

impl Projection {
    fn fit(view: &GraphView, opts: &SvgOptions) -> Projection {
        Projection::fit_bounds(view.bounds(), opts)
    }

    /// Fits a world bounding box into the padded canvas — the one
    /// place the fit arithmetic lives. The camera path feeds it the
    /// *full-frontier* bounds so an identity camera reproduces the
    /// classic fit bit for bit even when the view it draws keeps only
    /// a subset of the frontier.
    pub(crate) fn fit_bounds(bounds: Option<(Vec2, Vec2)>, opts: &SvgOptions) -> Projection {
        let (lo, hi) = bounds.unwrap_or((Vec2::default(), Vec2::default()));
        let span = hi - lo;
        let usable_w = (opts.width - 2.0 * opts.padding).max(1.0);
        let usable_h = (opts.height - 2.0 * opts.padding).max(1.0);
        let sx = if span.x > 0.0 { usable_w / span.x } else { f64::INFINITY };
        let sy = if span.y > 0.0 { usable_h / span.y } else { f64::INFINITY };
        let scale = sx.min(sy);
        let scale = if scale.is_finite() { scale } else { 1.0 };
        let center = (lo + hi) * 0.5;
        let canvas_center = Vec2::new(opts.width / 2.0, opts.height / 2.0);
        Projection { scale, offset: canvas_center - center * scale }
    }

    /// [`Projection::fit_bounds`] followed by the camera transform:
    /// zoom multiplies the fitted scale about the canvas center, pan
    /// shifts the canvas in pixels. Every step is guarded so the
    /// identity camera leaves the fitted projection bit-identical —
    /// `scale * 1.0` and `offset - 0.0` are *not* no-ops for every
    /// float (`-0.0` flips under `+ 0.0`), so they are skipped rather
    /// than trusted.
    pub(crate) fn fit_camera(
        bounds: Option<(Vec2, Vec2)>,
        opts: &SvgOptions,
        camera: &crate::viewport::Camera,
    ) -> Projection {
        let base = Projection::fit_bounds(bounds, opts);
        let mut scale = base.scale;
        let mut offset = base.offset;
        if camera.zoom != 1.0 {
            let canvas_center = Vec2::new(opts.width / 2.0, opts.height / 2.0);
            let world_center = Vec2::new(
                (canvas_center.x - base.offset.x) / base.scale,
                (canvas_center.y - base.offset.y) / base.scale,
            );
            scale = base.scale * camera.zoom;
            offset = canvas_center - world_center * scale;
        }
        if camera.pan_x != 0.0 {
            offset.x -= camera.pan_x;
        }
        if camera.pan_y != 0.0 {
            offset.y -= camera.pan_y;
        }
        Projection { scale, offset }
    }

    pub(crate) fn project(&self, p: Vec2) -> Vec2 {
        p * self.scale + self.offset
    }
}

fn write_shape(out: &mut String, shape: Shape, center: Vec2, size: f64, style: &str) {
    let h = size / 2.0;
    match shape {
        Shape::Square => {
            let _ = write!(
                out,
                r#"<rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" {}/>"#,
                center.x - h,
                center.y - h,
                size,
                size,
                style
            );
        }
        Shape::Diamond => {
            let _ = write!(
                out,
                r#"<polygon points="{:.2},{:.2} {:.2},{:.2} {:.2},{:.2} {:.2},{:.2}" {}/>"#,
                center.x,
                center.y - h,
                center.x + h,
                center.y,
                center.x,
                center.y + h,
                center.x - h,
                center.y,
                style
            );
        }
        Shape::Circle => {
            let _ = write!(
                out,
                r#"<circle cx="{:.2}" cy="{:.2}" r="{:.2}" {}/>"#,
                center.x, center.y, h, style
            );
        }
    }
}

/// Stroke color marking resources that failed during the slice.
const FAULT_STROKE: &str = "#cc2222";

fn write_node(out: &mut String, node: &ViewNode, center: Vec2, opts: &SvgOptions) {
    let color = kind_color(node.kind).hex();
    // Ingest trust annotation: values under a quarantine-marked node
    // were computed after dropping non-finite samples.
    let quarantine_attr = if node.quarantined > 0 {
        format!(r#" data-quarantined="{}""#, node.quarantined)
    } else {
        String::new()
    };
    if node.is_degraded() {
        // Failed (or partially failed, for aggregates) resources are
        // rendered distinctly: the exact availability travels as a data
        // attribute, the outline below switches to a dashed red stroke.
        let _ = write!(
            out,
            r#"<g class="node node-{} degraded" data-container="{}" data-members="{}" data-availability="{:.3}"{}>"#,
            node.shape.label(),
            node.container.index(),
            node.members,
            node.availability,
            quarantine_attr
        );
    } else {
        let _ = write!(
            out,
            r#"<g class="node node-{}" data-container="{}" data-members="{}"{}>"#,
            node.shape.label(),
            node.container.index(),
            node.members,
            quarantine_attr
        );
    }
    // Outline: dashed red for anything that was down during the slice.
    let outline = if node.is_degraded() {
        format!(r#"fill="none" stroke="{FAULT_STROKE}" stroke-width="1.5" stroke-dasharray="4 2""#)
    } else {
        format!(r#"fill="none" stroke="{color}" stroke-width="1.5""#)
    };
    write_shape(out, node.shape, center, node.px_size, &outline);
    // Proportional fill (§3.1): squares fill bottom-up; diamonds and
    // circles get an inner shape of proportional area.
    if node.fill_fraction > 0.0 {
        match node.shape {
            Shape::Square => {
                let s = node.px_size;
                let fh = s * node.fill_fraction;
                let _ = write!(
                    out,
                    r#"<rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" fill="{}" fill-opacity="0.75"/>"#,
                    center.x - s / 2.0,
                    center.y + s / 2.0 - fh,
                    s,
                    fh,
                    color
                );
            }
            Shape::Diamond | Shape::Circle => {
                let inner = node.px_size * node.fill_fraction.sqrt();
                let style = format!(r#"fill="{color}" fill-opacity="0.75""#);
                write_shape(out, node.shape, center, inner, &style);
            }
        }
    }
    // Fig. 3 link badge of aggregated groups: a diamond at the
    // north-east corner.
    if let Some(badge) = &node.link_badge {
        let at = center + Vec2::new(node.px_size / 2.0, -node.px_size / 2.0);
        let color = kind_color(viva_trace::ContainerKind::Link).hex();
        let outline = format!(r#"fill="none" stroke="{color}" stroke-width="1.2""#);
        write_shape(out, Shape::Diamond, at, badge.px_size, &outline);
        if badge.fill_fraction > 0.0 {
            let style = format!(r#"fill="{color}" fill-opacity="0.75""#);
            write_shape(
                out,
                Shape::Diamond,
                at,
                badge.px_size * badge.fill_fraction.sqrt(),
                &style,
            );
        }
    }
    // §6 pie glyph: per-metric shares at the south-east corner.
    if !node.segments.is_empty() {
        let at = center + Vec2::new(node.px_size / 2.0, node.px_size / 2.0);
        let r = (node.px_size / 3.0).max(3.0);
        let mut angle = -std::f64::consts::FRAC_PI_2;
        for (i, (name, share)) in node.segments.iter().enumerate() {
            let sweep = share * std::f64::consts::TAU;
            let (x0, y0) = (at.x + r * angle.cos(), at.y + r * angle.sin());
            let end = angle + sweep;
            let (x1, y1) = (at.x + r * end.cos(), at.y + r * end.sin());
            let large = i32::from(sweep > std::f64::consts::PI);
            let color = crate::color::account_color(i).hex();
            if *share >= 1.0 - 1e-9 {
                let _ = write!(
                    out,
                    r#"<circle cx="{:.2}" cy="{:.2}" r="{:.2}" fill="{}" class="pie" data-metric="{}"/>"#,
                    at.x, at.y, r, color, xml_escape(name)
                );
            } else {
                let _ = write!(
                    out,
                    r#"<path d="M {:.2} {:.2} L {:.2} {:.2} A {r:.2} {r:.2} 0 {large} 1 {:.2} {:.2} Z" fill="{}" class="pie" data-metric="{}"/>"#,
                    at.x, at.y, x0, y0, x1, y1, color, xml_escape(name)
                );
            }
            angle = end;
        }
    }
    if opts.labels {
        let _ = write!(
            out,
            r#"<text x="{:.2}" y="{:.2}" font-size="9" text-anchor="middle" fill="{}">{}</text>"#,
            center.x,
            center.y + node.px_size / 2.0 + 10.0,
            opts.theme.label_fill(),
            xml_escape(&node.label)
        );
    }
    out.push_str("</g>\n");
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// The aggregate tile glyph of a level-of-detail render: a dashed
/// rounded rectangle over the subtree's projected footprint, filled
/// bottom-up by mean utilization, annotated with the count of nodes it
/// stands for. Degenerate footprints are grown to a readable minimum
/// and the whole glyph is clamped into the canvas, so fully-offscreen
/// subtrees hug the nearest border.
fn write_tile(out: &mut String, tile: &ViewTile, proj: &Projection, opts: &SvgOptions) {
    const MIN_SIDE: f64 = 12.0;
    const MARGIN: f64 = 3.0;
    let a = proj.project(tile.lo);
    let b = proj.project(tile.hi);
    let clamp_span = |lo: f64, hi: f64, limit: f64| {
        let span = (hi - lo).max(MIN_SIDE).min((limit - 2.0 * MARGIN).max(MIN_SIDE));
        let center = (lo + hi) * 0.5;
        let lo = (center - span * 0.5)
            .max(MARGIN)
            .min(limit - MARGIN - span);
        (lo, span)
    };
    let (x, w) = clamp_span(a.x, b.x, opts.width);
    let (y, h) = clamp_span(a.y, b.y, opts.height);
    let color = kind_color(tile.kind).hex();
    let degraded = if tile.is_degraded() { " degraded" } else { "" };
    let offscreen = if tile.offscreen { " offscreen" } else { "" };
    let _ = write!(
        out,
        r#"<g class="tile{degraded}{offscreen}" data-container="{}" data-nodes="{}" data-size="{:.3}" data-fill="{:.3}" data-availability="{:.3}""#,
        tile.container.index(),
        tile.nodes,
        tile.size_value,
        tile.fill_value,
        tile.availability,
    );
    if tile.quarantined > 0 {
        let _ = write!(out, r#" data-quarantined="{}""#, tile.quarantined);
    }
    if !tile.segments.is_empty() {
        let mix: Vec<String> = tile
            .segments
            .iter()
            .map(|(name, share)| format!("{}:{:.3}", xml_escape(name), share))
            .collect();
        let _ = write!(out, r#" data-mix="{}""#, mix.join(";"));
    }
    out.push('>');
    let stroke = if tile.is_degraded() { FAULT_STROKE } else { &color };
    let _ = write!(
        out,
        r#"<rect x="{x:.2}" y="{y:.2}" width="{w:.2}" height="{h:.2}" rx="3" fill="none" stroke="{stroke}" stroke-width="1.2" stroke-dasharray="2 3"/>"#,
    );
    if tile.fill_fraction > 0.0 {
        let fh = h * tile.fill_fraction;
        let _ = write!(
            out,
            r#"<rect x="{x:.2}" y="{:.2}" width="{w:.2}" height="{fh:.2}" fill="{color}" fill-opacity="0.35"/>"#,
            y + h - fh,
        );
    }
    let _ = write!(
        out,
        r#"<text x="{:.2}" y="{:.2}" font-size="10" text-anchor="middle" fill="{}">{}</text>"#,
        x + w / 2.0,
        y + h / 2.0 + 3.5,
        opts.theme.label_fill(),
        tile.nodes,
    );
    if opts.labels {
        let _ = write!(
            out,
            r#"<text x="{:.2}" y="{:.2}" font-size="9" text-anchor="middle" fill="{}">{}</text>"#,
            x + w / 2.0,
            y + h + 10.0,
            opts.theme.label_fill(),
            xml_escape(&tile.label)
        );
    }
    out.push_str("</g>\n");
}

/// Renders a view to a standalone SVG document.
pub fn render(view: &GraphView, opts: &SvgOptions) -> String {
    render_projected(view, opts, &Projection::fit(view, opts))
}

/// [`render`] with an explicit projection — the level-of-detail path,
/// whose projection is fitted to the *full* frontier bounds (plus
/// camera) rather than to the subset of nodes that survived the cut.
pub(crate) fn render_projected(view: &GraphView, opts: &SvgOptions, proj: &Projection) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{}" height="{}" viewBox="0 0 {} {}">"#,
        opts.width, opts.height, opts.width, opts.height
    );
    let _ = writeln!(
        out,
        r#"<rect width="100%" height="100%" fill="{}"/>"#,
        opts.theme.background()
    );
    // Edges below everything. An endpoint is either a drawn node or,
    // on the level-of-detail path, an aggregate tile (anchored at its
    // world-footprint center); edges to entities in neither list are
    // dropped, as before.
    let endpoint = |id| {
        view.node(id)
            .map(|n| n.position)
            .or_else(|| view.tile(id).map(|t| (t.lo + t.hi) * 0.5))
    };
    for e in &view.edges {
        let (Some(a), Some(b)) = (endpoint(e.a), endpoint(e.b)) else {
            continue;
        };
        let pa = proj.project(a);
        let pb = proj.project(b);
        let _ = writeln!(
            out,
            r#"<line x1="{:.2}" y1="{:.2}" x2="{:.2}" y2="{:.2}" stroke="{}" stroke-width="1"/>"#,
            pa.x,
            pa.y,
            pb.x,
            pb.y,
            opts.theme.edge_stroke()
        );
    }
    // Tiles under the real nodes: they are background context.
    for tile in &view.tiles {
        write_tile(&mut out, tile, proj, opts);
    }
    for node in &view.nodes {
        write_node(&mut out, node, proj.project(node.position), opts);
    }
    // Degraded-data badge: drawn whenever the trace behind this view
    // went through a lossy ingest. It is the whole-document honesty
    // marker — every value on screen was computed without the dropped
    // events and quarantined samples it counts.
    if view.has_degraded_data() {
        let _ = writeln!(
            out,
            r#"<g class="degraded-data-badge" data-dropped="{}" data-quarantined="{}"><rect x="6" y="6" width="14" height="14" fill="none" stroke="{FAULT_STROKE}" stroke-width="1.5" stroke-dasharray="3 2"/><text x="25" y="17" font-size="11" fill="{FAULT_STROKE}">degraded data: {} event(s) dropped, {} sample(s) quarantined</text></g>"#,
            view.ingest_dropped,
            view.quarantined_total(),
            view.ingest_dropped,
            view.quarantined_total(),
        );
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use viva_agg::{TimeSlice, ViewState};
    use viva_trace::{ContainerKind, TraceBuilder};

    pub(super) fn view() -> GraphView {
        let mut b = TraceBuilder::new();
        let h = b.new_container(b.root(), "h", ContainerKind::Host).unwrap();
        let l = b.new_container(b.root(), "l<&>", ContainerKind::Link).unwrap();
        let power = b.metric("power", "MFlop/s");
        let used = b.metric("power_used", "MFlop/s");
        let bw = b.metric("bandwidth", "Mbit/s");
        b.set_variable(0.0, h, power, 100.0).unwrap();
        b.set_variable(0.0, h, used, 50.0).unwrap();
        b.set_variable(0.0, l, bw, 1000.0).unwrap();
        let t = b.finish(10.0);
        crate::view::tests::build_view(
            &t,
            &ViewState::new(),
            TimeSlice::new(0.0, 10.0),
            &crate::mapping::MappingConfig::default(),
            &crate::scaling::ScalingConfig::default(),
            &|c| viva_layout::Vec2::new(c.index() as f64 * 50.0, 10.0),
            &[(h, l)],
            &[],
        )
    }

    #[test]
    fn renders_document_with_shapes_and_edges() {
        let svg = render(&view(), &SvgOptions::default());
        assert!(svg.starts_with("<svg xmlns"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("node-square"));
        assert!(svg.contains("node-diamond"));
        assert!(svg.contains("<line"));
        // The half-utilized host gets a fill rect (outline + fill).
        assert!(svg.matches("<rect").count() >= 3); // bg + outline + fill
    }

    #[test]
    fn rendering_is_deterministic() {
        let v = view();
        assert_eq!(
            render(&v, &SvgOptions::default()),
            render(&v, &SvgOptions::default())
        );
    }

    #[test]
    fn dark_theme_swaps_palette_only() {
        let v = view();
        let light = render(&v, &SvgOptions::default());
        let dark = render(&v, &SvgOptions { theme: Theme::Dark, ..Default::default() });
        assert_ne!(light, dark);
        assert!(dark.contains(Theme::Dark.background()));
        assert!(!dark.contains("#ffffff"));
        // Geometry is theme-independent: strip colors and compare.
        let strip = |s: &str| {
            s.replace(Theme::Light.background(), "BG")
                .replace(Theme::Dark.background(), "BG")
                .replace(Theme::Light.edge_stroke(), "EDGE")
                .replace(Theme::Dark.edge_stroke(), "EDGE")
        };
        assert_eq!(strip(&light), strip(&dark));
    }

    #[test]
    fn viewport_converts_to_options() {
        let vp = Viewport::new(320.0, 240.0).with_labels(true).with_theme(Theme::Dark);
        let opts = SvgOptions::from(&vp);
        assert_eq!(opts.width, 320.0);
        assert_eq!(opts.height, 240.0);
        assert!(opts.labels);
        assert_eq!(opts.theme, Theme::Dark);
        assert_eq!(opts.padding, 30.0);
    }

    #[test]
    fn labels_are_escaped() {
        let svg = render(&view(), &SvgOptions { labels: true, ..Default::default() });
        assert!(svg.contains("l&lt;&amp;&gt;"));
    }

    #[test]
    fn empty_view_renders() {
        let v = GraphView {
            nodes: Vec::new(),
            edges: Vec::new(),
            tiles: Vec::new(),
            slice: TimeSlice::new(0.0, 1.0),
            ingest_dropped: 0,
        };
        let svg = render(&v, &SvgOptions::default());
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn single_node_is_centered() {
        let mut v = view();
        v.nodes.truncate(1);
        v.edges.clear();
        let svg = render(&v, &SvgOptions { width: 200.0, height: 100.0, ..Default::default() });
        // Degenerate bounds: scale 1, node at canvas center.
        assert!(svg.contains(r#"x="80.00""#), "{svg}");
    }
}

#[cfg(test)]
mod degraded_data_tests {
    use super::*;
    use viva_agg::{TimeSlice, ViewState};
    use viva_trace::{RecoveryMode, TraceLoader};

    fn corrupted_view() -> GraphView {
        // Two NaN samples quarantined on h1, one garbage line dropped.
        let text = "span,0,10\n\
                    container,1,0,cluster,c\n\
                    container,2,1,host,h1\n\
                    container,3,1,host,h2\n\
                    metric,0,MFlop/s,power\n\
                    var,0.0,2,0,NaN\n\
                    var,1.0,2,0,nan\n\
                    var,0.0,3,0,25.0\n\
                    this line is garbage\n";
        let report = TraceLoader::new()
            .mode(RecoveryMode::Lenient)
            .load_str(text)
            .expect("lenient load never errors on record faults");
        assert_eq!(report.quarantined, 2);
        assert_eq!(report.dropped, 3, "garbage line + 2 quarantined");
        crate::view::tests::build_view(
            &report.trace,
            &ViewState::new(),
            TimeSlice::new(0.0, 10.0),
            &crate::mapping::MappingConfig::default(),
            &crate::scaling::ScalingConfig::default(),
            &|c| viva_layout::Vec2::new(c.index() as f64 * 40.0, 0.0),
            &[],
            &[],
        )
    }

    #[test]
    fn lossy_ingest_renders_degraded_data_badge() {
        let view = corrupted_view();
        assert!(view.has_degraded_data());
        assert_eq!(view.ingest_dropped, 3);
        assert_eq!(view.quarantined_total(), 2);
        let svg = render(&view, &SvgOptions::default());
        assert!(svg.contains("degraded-data-badge"), "{svg}");
        assert!(svg.contains(r#"data-dropped="3""#));
        assert!(svg.contains("3 event(s) dropped, 2 sample(s) quarantined"));
        // The host carrying the NaNs is individually marked.
        let h1 = view.node_by_label("h1").unwrap();
        assert_eq!(h1.quarantined, 2);
        assert!(svg.contains(r#"data-quarantined="2""#));
        // Rendering a degraded view stays deterministic.
        assert_eq!(svg, render(&corrupted_view(), &SvgOptions::default()));
    }

    #[test]
    fn clean_traces_render_no_badge() {
        let svg = render(&super::tests::view(), &SvgOptions::default());
        assert!(!svg.contains("degraded-data-badge"));
        assert!(!svg.contains("data-quarantined"));
    }
}

#[cfg(test)]
mod availability_tests {
    use super::*;
    use viva_agg::{TimeSlice, ViewState};
    use viva_trace::{metric::names, ContainerKind, TraceBuilder};

    #[test]
    fn failed_resources_render_distinctly() {
        let mut b = TraceBuilder::new();
        let up = b.new_container(b.root(), "up", ContainerKind::Host).unwrap();
        let down = b.new_container(b.root(), "down", ContainerKind::Host).unwrap();
        let power = b.metric("power", "MFlop/s");
        let avail = b.metric(names::AVAILABILITY, "fraction");
        for h in [up, down] {
            b.set_variable(0.0, h, power, 100.0).unwrap();
            b.set_variable(0.0, h, avail, 1.0).unwrap();
        }
        // `down` crashes at t=4 and never recovers.
        b.set_variable(4.0, down, avail, 0.0).unwrap();
        let t = b.finish(10.0);
        let view = crate::view::tests::build_view(
            &t,
            &ViewState::new(),
            TimeSlice::new(0.0, 10.0),
            &crate::mapping::MappingConfig::default(),
            &crate::scaling::ScalingConfig::default(),
            &|c| viva_layout::Vec2::new(c.index() as f64 * 40.0, 0.0),
            &[],
            &[],
        );
        let healthy = view.node_by_label("up").unwrap();
        let failed = view.node_by_label("down").unwrap();
        assert_eq!(healthy.availability, 1.0);
        assert!(!healthy.is_degraded());
        assert!((failed.availability - 0.4).abs() < 1e-9, "up 4 s of 10");
        assert!(failed.is_degraded());

        let svg = render(&view, &SvgOptions::default());
        assert!(svg.contains(r#"data-availability="0.400""#));
        assert!(svg.contains("stroke-dasharray"));
        assert!(svg.contains(FAULT_STROKE));
        assert_eq!(
            svg.matches("degraded").count(),
            1,
            "only the crashed host is marked"
        );
    }

    #[test]
    fn traces_without_availability_render_unmarked() {
        let svg = render(&super::tests::view(), &SvgOptions::default());
        assert!(!svg.contains("data-availability"));
        assert!(!svg.contains("stroke-dasharray"));
    }
}

#[cfg(test)]
mod pie_tests {
    use super::*;
    use viva_agg::{TimeSlice, ViewState};
    use viva_trace::{ContainerKind, TraceBuilder};

    #[test]
    fn pie_segments_render_as_paths() {
        let mut b = TraceBuilder::new();
        let h = b.new_container(b.root(), "h", ContainerKind::Host).unwrap();
        let power = b.metric("power", "MFlop/s");
        let a1 = b.metric("power_used:app1", "MFlop/s");
        let a2 = b.metric("power_used:app2", "MFlop/s");
        b.set_variable(0.0, h, power, 100.0).unwrap();
        b.set_variable(0.0, h, a1, 60.0).unwrap();
        b.set_variable(0.0, h, a2, 20.0).unwrap();
        let t = b.finish(10.0);
        let view = crate::view::tests::build_view(
            &t,
            &ViewState::new(),
            TimeSlice::new(0.0, 10.0),
            &crate::mapping::MappingConfig::default(),
            &crate::scaling::ScalingConfig::default(),
            &|_| viva_layout::Vec2::default(),
            &[],
            &["power_used:app1".to_owned(), "power_used:app2".to_owned()],
        );
        let svg = render(&view, &SvgOptions::default());
        assert_eq!(svg.matches("class=\"pie\"").count(), 2);
        assert!(svg.contains("data-metric=\"power_used:app1\""));
        // A single 100% segment renders as a full circle.
        let mut only = view.clone();
        only.nodes[0].segments = vec![("power_used:app1".to_owned(), 1.0)];
        let svg = render(&only, &SvgOptions::default());
        assert!(svg.contains("class=\"pie\""));
        assert!(!svg.contains("<path"), "full share uses a circle, not an arc");
    }
}
