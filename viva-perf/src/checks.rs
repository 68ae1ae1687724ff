//! Output checks, computed apart from the program: the benchmark's own
//! reading of the trace text it generated, its own step-function
//! integral, and plain scans of the response lines and rendered SVG.
//! `self_test` shows that every check rejects an answer perturbed on
//! purpose.

use std::collections::{BTreeSet, HashMap};

use viva_server::{Command, Server, ServerLimits};
use viva_trace::RecoveryMode;

use crate::analyst::{aggregate_line, group_line, render_line, slice_line};
use crate::util::{field, field_num};

/// Relative tolerance of numeric checks. Summation order differs
/// between the program and this model, so exact equality is too
/// strict; 1e-9 is still a thousand times tighter than the 1e-6
/// perturbation the self-test must catch.
const REL_TOL: f64 = 1e-9;

/// Whether `got` equals `expected` up to [`REL_TOL`].
pub fn close(got: f64, expected: f64) -> bool {
    (got - expected).abs() <= REL_TOL * expected.abs().max(1.0)
}

/// The benchmark's own model of a trace, read from the CSV dialect it
/// generated (`span`, `container`, `metric` and `var` records).
#[derive(Debug, Default)]
pub struct TraceModel {
    pub start: f64,
    pub end: f64,
    names: HashMap<String, u64>,
    children: HashMap<u64, Vec<u64>>,
    kinds: HashMap<u64, String>,
    metrics: HashMap<String, u64>,
    /// `(container, metric)` → breakpoints in file order.
    signals: HashMap<(u64, u64), Vec<(f64, f64)>>,
}

impl TraceModel {
    pub fn parse(text: &str) -> TraceModel {
        let mut m = TraceModel::default();
        for line in text.lines() {
            let f: Vec<&str> = line.splitn(5, ',').collect();
            match f[0] {
                "span" => {
                    m.start = f[1].parse().expect("span start");
                    m.end = f[2].parse().expect("span end");
                }
                "container" => {
                    let id: u64 = f[1].parse().expect("container id");
                    let parent: u64 = f[2].parse().expect("parent id");
                    m.children.entry(parent).or_default().push(id);
                    m.kinds.insert(id, f[3].to_owned());
                    m.names.insert(f[4].to_owned(), id);
                }
                "metric" => {
                    let id: u64 = f[1].parse().expect("metric id");
                    let name = line.splitn(4, ',').nth(3).expect("metric name");
                    m.metrics.insert(name.to_owned(), id);
                }
                "var" => {
                    let t: f64 = f[1].parse().expect("var time");
                    let c: u64 = f[2].parse().expect("var container");
                    let k: u64 = f[3].parse().expect("var metric");
                    let v: f64 = f[4].parse().expect("var value");
                    m.signals.entry((c, k)).or_default().push((t, v));
                }
                _ => {}
            }
        }
        for s in m.signals.values_mut() {
            // Stable: of two breakpoints at one time the later wins.
            s.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        m
    }

    pub fn id(&self, name: &str) -> Option<u64> {
        self.names.get(name).copied()
    }

    /// Ids of every container of `kind` (`site`, `host`, `link`...).
    pub fn ids_of_kind(&self, kind: &str) -> BTreeSet<u64> {
        self.kinds
            .iter()
            .filter(|(_, k)| *k == kind)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Names of every container of `kind`.
    pub fn names_of_kind(&self, kind: &str) -> Vec<String> {
        let mut v: Vec<String> = self
            .names
            .iter()
            .filter(|(_, id)| self.kinds.get(id).is_some_and(|k| k == kind))
            .map(|(n, _)| n.clone())
            .collect();
        v.sort();
        v
    }

    /// The requested slice clamped to the trace span.
    pub fn clamp(&self, a: f64, b: f64) -> (f64, f64) {
        (a.max(self.start), b.min(self.end))
    }

    /// Space × time integral of `metric` over the subtree of `group`
    /// and `[a, b]`: the paper's Equation 1, summed leaf by leaf.
    pub fn integral(&self, group: &str, metric: &str, a: f64, b: f64) -> Option<f64> {
        let root = self.id(group)?;
        let k = *self.metrics.get(metric)?;
        let mut total = 0.0;
        let mut stack = vec![root];
        while let Some(c) = stack.pop() {
            if let Some(points) = self.signals.get(&(c, k)) {
                total += step_integral(points, a, b);
            }
            if let Some(ch) = self.children.get(&c) {
                stack.extend_from_slice(ch);
            }
        }
        Some(total)
    }
}

/// Integral over `[a, b]` of the step function that takes value `v`
/// from each breakpoint `(t, v)` until the next one (and for ever after
/// the last), 0 before the first.
pub fn step_integral(points: &[(f64, f64)], a: f64, b: f64) -> f64 {
    let mut total = 0.0;
    for (i, &(t, v)) in points.iter().enumerate() {
        let next = points.get(i + 1).map_or(f64::INFINITY, |p| p.0);
        let lo = t.max(a);
        let hi = next.min(b);
        if hi > lo {
            total += v * (hi - lo);
        }
    }
    total
}

/// The container ids of every node an SVG frame draws, read from the
/// still JSON-escaped `svg` field of a frame response.
pub fn frame_nodes(svg_escaped: &str) -> BTreeSet<u64> {
    let open = "<g class=\\\"node ";
    let key = "data-container=\\\"";
    let mut out = BTreeSet::new();
    let mut rest = svg_escaped;
    while let Some(at) = rest.find(open) {
        rest = &rest[at + open.len()..];
        if let Some(n) = rest.find(key) {
            let id = &rest[n + key.len()..];
            if let Some(id) = id.split("\\\"").next().and_then(|s| s.parse().ok()) {
                out.insert(id);
            }
        }
    }
    out
}

/// The container ids a frame response line draws.
pub fn drawn(frame: &str) -> BTreeSet<u64> {
    frame_nodes(field(frame, "svg").unwrap_or(""))
}

/// Whether an `aggregate` answer line's `integral` equals `want`.
pub fn aggregate_matches(answer: &str, want: f64) -> bool {
    field_num(answer, "integral").is_some_and(|got| close(got, want))
}

/// Whether a frame response line draws exactly `want_svg` (the still
/// JSON-escaped `svg` field of another frame line).
pub fn same_svg(frame: &str, want_svg: &str) -> bool {
    !want_svg.is_empty() && field(frame, "svg") == Some(want_svg)
}

/// A level's frame shows every group of that level and nothing finer.
pub fn level_shown(drawn: &BTreeSet<u64>, level: &BTreeSet<u64>, finer: &BTreeSet<u64>) -> bool {
    !level.is_empty() && level.is_subset(drawn) && drawn.is_disjoint(finer)
}

/// Fig. 6 property: under sequential deployment the most used links
/// are the inter-cluster ones (`*-bb`). `utilization` is link name →
/// used share of capacity.
pub fn backbone_most_used(utilization: &[(String, f64)]) -> bool {
    let bb = utilization
        .iter()
        .filter(|(n, _)| n.ends_with("-bb"))
        .map(|p| p.1)
        .fold(f64::INFINITY, f64::min);
    let other = utilization
        .iter()
        .filter(|(n, _)| !n.ends_with("-bb"))
        .map(|p| p.1)
        .fold(f64::NEG_INFINITY, f64::max);
    bb.is_finite() && bb > other
}

/// Fig. 7 property: the locality deployment finishes first.
pub fn locality_faster(makespan_seq: f64, makespan_loc: f64) -> bool {
    makespan_loc < makespan_seq
}

/// Live stream: the subscriber saw the last acknowledged sequence
/// number and was never shed.
pub fn subscriber_caught_up(last_delta: u64, last_acked: u64, lagging: u64) -> bool {
    last_delta == last_acked && lagging == 0
}

/// Runs every check against a correct answer and a perturbed one. The
/// answers are real response lines of a small server over a trace the
/// model reads too. Returns one line per check that failed to accept
/// the first or to reject the second; empty means the checks are sound.
pub fn self_test() -> Vec<String> {
    let mut bad = Vec::new();

    let text = "span,0.0,10.0\n\
                container,1,0,site,s0\n\
                container,2,1,host,h0\n\
                container,3,1,host,h1\n\
                metric,0,MFlop/s,power_used\n\
                var,0.0,2,0,100.0\n\
                var,4.0,2,0,50.0\n\
                var,2.0,3,0,10.0\n";
    let m = TraceModel::parse(text);
    // h0: 100·4 + 50·6 = 700; h1: 10·8 = 80 over [0, 10]; over [3, 5]
    // h0 100 + 50 and h1 20.
    let whole = m
        .integral("s0", "power_used", 0.0, 10.0)
        .unwrap_or(f64::NAN);
    let part = m.integral("s0", "power_used", 3.0, 5.0).unwrap_or(f64::NAN);
    if whole != 780.0 || part != 170.0 {
        bad.push(format!(
            "model integral: {whole} and {part}, by hand 780 and 170"
        ));
    }

    let mut expect = |name: &str, accepts: bool, rejects: bool| {
        if !accepts {
            bad.push(format!("{name}: rejected a correct answer"));
        }
        if !rejects {
            bad.push(format!("{name}: accepted a perturbed answer"));
        }
    };

    let server = Server::new(ServerLimits::default());
    let call = |line: &str| server.handle_line(line).unwrap_or_default();
    let load = Command::LoadTrace {
        session: "t".into(),
        mode: RecoveryMode::Strict,
        text: text.to_owned(),
        trace: None,
    }
    .encode();
    call(&load);
    // An answer whose `integral` is off by 1e-6 relative.
    let off = |answer: &str| {
        let raw = field(answer, "integral").unwrap_or("");
        let got: f64 = raw.parse().unwrap_or(f64::NAN);
        answer.replacen(
            &format!("\"integral\":{raw}"),
            &format!("\"integral\":{:?}", got * (1.0 + 1e-6)),
            1,
        )
    };
    let answer = call(&aggregate_line("t", "power_used", "s0"));
    expect(
        "aggregate",
        aggregate_matches(&answer, whole),
        !aggregate_matches(&off(&answer), whole),
    );
    call(&slice_line("t", 3.0, 5.0));
    let answer = call(&aggregate_line("t", "power_used", "s0"));
    expect(
        "aggregate-slice",
        aggregate_matches(&answer, part),
        !aggregate_matches(&off(&answer), part),
    );

    let render = render_line("t", 400, 300);
    let frame = call(&render);
    let hosts = m.ids_of_kind("host");
    let sites = m.ids_of_kind("site");
    let missing = frame.replacen(r#"data-container=\"3\""#, "", 1);
    let extra = frame.replacen(r#"data-container=\"3\""#, r#"data-container=\"1\""#, 1);
    expect(
        "frame-groups",
        level_shown(&drawn(&frame), &hosts, &sites),
        !level_shown(&drawn(&missing), &hosts, &sites)
            && !level_shown(&drawn(&extra), &hosts, &sites),
    );
    call(&group_line("collapse", "t", "s0"));
    let site_frame = call(&render);
    expect(
        "frame-groups-site",
        level_shown(&drawn(&site_frame), &sites, &hosts),
        !level_shown(&drawn(&frame), &sites, &hosts),
    );

    let want_svg = field(&frame, "svg").unwrap_or("");
    let changed = frame.replacen("<rect", "<Rect", 1);
    expect(
        "same-svg",
        same_svg(&frame, want_svg),
        !same_svg(&changed, want_svg) && !same_svg(&site_frame, want_svg),
    );

    let util = vec![
        ("adonis-bb".to_owned(), 0.9),
        ("griffon-bb".to_owned(), 0.8),
        ("h1-up".to_owned(), 0.5),
    ];
    let mut swapped = util.clone();
    swapped[2].1 = 0.85;
    expect(
        "fig6-backbone",
        backbone_most_used(&util),
        !backbone_most_used(&swapped),
    );
    expect(
        "fig7-locality",
        locality_faster(8.3, 6.8),
        !locality_faster(6.8, 8.3),
    );
    expect(
        "subscriber",
        subscriber_caught_up(42, 42, 0),
        !subscriber_caught_up(41, 42, 0) && !subscriber_caught_up(42, 42, 1),
    );
    bad
}
