//! # viva-bench — figure harnesses and performance benchmarks
//!
//! One binary per figure of the paper (`fig1_mapping` …
//! `fig9_gridmw_evolution`) prints the series behind that figure and,
//! where meaningful, writes the corresponding SVG snapshots under
//! `target/figures/`. Criterion benches (`benches/`) back the paper's
//! performance claims (Barnes-Hut `O(n log n)` layout, interactive
//! aggregation).
//!
//! This crate's library part only holds small shared helpers for the
//! harness binaries.

use std::path::PathBuf;

use viva_platform::{HostId, Platform, RouteTable};
use viva_trace::{ContainerId, ContainerKind, Trace, TraceBuilder};

/// Directory where harness binaries drop SVG snapshots.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    std::fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Writes an SVG next to the other figure outputs and reports the path.
pub fn save_svg(name: &str, svg: &str) {
    let path = figures_dir().join(name);
    std::fs::write(&path, svg).expect("write svg");
    println!("  [svg] {}", path.display());
}

/// The serving benchmarks' trace as CSV interchange text: `clusters`
/// clusters `cl<i>` of `hosts` hosts `cl<i>-h<j>`, each with a constant
/// `power` and a `power_used` that steps through multiples of 10 over
/// `steps` unit steps. The values are exactly representable, so
/// responses are deterministic across runs.
pub fn grid_trace_csv(clusters: usize, hosts: usize, steps: usize) -> String {
    let mut b = TraceBuilder::new();
    let power = b.metric("power", "MFlop/s");
    let used = b.metric("power_used", "MFlop/s");
    for ci in 0..clusters {
        let cluster = b
            .new_container(b.root(), format!("cl{ci}"), ContainerKind::Cluster)
            .expect("cluster");
        for hi in 0..hosts {
            let host = b
                .new_container(cluster, format!("cl{ci}-h{hi}"), ContainerKind::Host)
                .expect("host");
            b.set_variable(0.0, host, power, 100.0).expect("power");
            for t in 0..=steps {
                let v = (((t + (ci * hosts + hi) * 3) % 7) * 10) as f64;
                b.set_variable(t as f64, host, used, v).expect("used");
            }
        }
    }
    viva_trace::export::to_csv(&b.finish(steps as f64))
}

/// The `p`-th percentile (0–100) of an ascending sample, by nearest
/// rank; 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Prints a simple aligned table.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("  {}", s.trim_end());
    };
    line(&header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
    line(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>(),
    );
    for row in rows {
        line(row);
    }
}

/// Picks, for each site, a host on the site's fastest cluster —
/// masters should not sit behind a slow uplink.
pub fn best_connected_host(platform: &Platform, site_index: usize) -> HostId {
    let site = &platform.sites()[site_index];
    let mut routes = RouteTable::new();
    let mut best: Option<(f64, HostId)> = None;
    for &cl in site.clusters() {
        let cluster = platform.cluster(cl);
        let Some(&h) = cluster.hosts().first() else { continue };
        // Bottleneck toward some remote host ranks the cluster uplink.
        let remote = platform.hosts().last().expect("non-empty platform").id();
        let bw = routes
            .route(platform, h, remote)
            .map(|r| r.bottleneck)
            .unwrap_or(0.0);
        if best.is_none_or(|(b, _)| bw > b) {
            best = Some((bw, h));
        }
    }
    best.expect("site has hosts").1
}

/// Utilization (0..=1) of a traced link over a window: integral of
/// `bandwidth_used` divided by capacity × width.
pub fn link_utilization(trace: &Trace, link: ContainerId, a: f64, b: f64) -> f64 {
    let used = trace
        .metric_id(viva_trace::metric::names::BANDWIDTH_USED)
        .map_or(0.0, |m| trace.integrate(link, m, a, b));
    let cap = trace
        .metric_id(viva_trace::metric::names::BANDWIDTH)
        .and_then(|m| trace.signal(link, m))
        .map_or(0.0, |s| s.value_at(a));
    if cap > 0.0 && b > a {
        used / (cap * (b - a))
    } else {
        0.0
    }
}

/// All link containers of a trace with their names, id order.
pub fn trace_links(trace: &Trace) -> Vec<(ContainerId, String)> {
    trace
        .containers()
        .of_kind(ContainerKind::Link)
        .into_iter()
        .map(|c| (c, trace.containers().node(c).name().to_owned()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use viva_platform::generators;

    #[test]
    fn best_connected_host_is_on_requested_site() {
        let p = generators::grid5000(&generators::Grid5000Config {
            sites: 3,
            total_hosts: 30,
            ..Default::default()
        })
        .unwrap();
        let h = best_connected_host(&p, 0);
        assert_eq!(p.sites()[p.site_of_host(h).index()].name(), "grenoble");
    }

    #[test]
    fn link_utilization_of_idle_trace_is_zero() {
        let p = generators::star(2, 100.0, 1000.0).unwrap();
        let mut sim = viva_simflow::Simulation::new(p);
        sim.enable_tracing(viva_simflow::TracingConfig::default());
        sim.run();
        let t = sim.into_trace().unwrap();
        assert!(!trace_links(&t).is_empty());
        for (l, _) in trace_links(&t) {
            assert_eq!(link_utilization(&t, l, 0.0, 1.0), 0.0);
        }
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(&["a", "b"], &[vec!["1".into(), "22".into()]]);
    }
}
