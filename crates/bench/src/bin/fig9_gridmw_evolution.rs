//! Figure 9 — evolution of platform usage across time at the site
//! level: the bandwidth-centric strategy fills well-connected sites
//! first ("site B is filled quickly in [t0, t2] whereas site C has to
//! wait until t2"), while a FIFO master diffuses uniformly.
//!
//! Pass `--small` for a reduced platform.

use viva_agg::TimeSlice;
use viva_bench::{best_connected_host, print_table};
use viva_platform::generators::{self, Grid5000Config};
use viva_simflow::TracingConfig;
use viva_trace::{ContainerKind, Trace};
use viva_workloads::{run_master_worker, AppSpec, MwConfig, Scheduler};

fn site_matrix(trace: &Trace, makespan: f64, metric: &str) -> (Vec<String>, Vec<Vec<f64>>) {
    let tree = trace.containers();
    let sites: Vec<_> = tree.of_kind(ContainerKind::Site);
    let names = sites
        .iter()
        .map(|&s| tree.node(s).name().to_owned())
        .collect();
    let slices = TimeSlice::new(0.0, makespan).split(4);
    let matrix = viva::animation::evolution_matrix(trace, metric, &sites, &slices);
    (names, matrix)
}

fn run(scheduler: Scheduler, small: bool) -> (Trace, f64) {
    let cfg = if small {
        Grid5000Config { total_hosts: 120, sites: 6, ..Default::default() }
    } else {
        Grid5000Config::default()
    };
    let platform = generators::grid5000(&cfg).unwrap();
    // Long-running tasks, roughly three per worker: the run is
    // dominated by the buffer-filling wave, which is where the
    // scheduling policy shows (the paper's "site B is filled quickly
    // ... site C has to wait").
    let n_hosts = platform.hosts().len();
    let apps = vec![AppSpec {
        name: "app1".into(),
        master: best_connected_host(&platform, 0),
        config: MwConfig {
            tasks: 3 * n_hosts,
            task_flops: 200_000.0,
            task_size_mbit: 40.0,
            scheduler,
            ..MwConfig::cpu_bound()
        },
    }];
    let run = run_master_worker(
        platform,
        &apps,
        Some(TracingConfig { record_messages: false, record_accounts: true }),
    );
    (run.trace.expect("traced"), run.makespan)
}

fn report(label: &str, trace: &Trace, makespan: f64) {
    let (names, matrix) = site_matrix(trace, makespan, "power_used:app1");
    println!("\n{label} — makespan {makespan:.0} s; app1 MFlop delivered per site per quarter:");
    let mut rows = Vec::new();
    let mut started_at = Vec::new();
    for (name, series) in names.iter().zip(&matrix) {
        let total: f64 = series.iter().sum();
        if total <= 0.0 {
            continue;
        }
        let first_active = series.iter().position(|&v| v > total * 0.01).unwrap_or(4);
        started_at.push((name.clone(), first_active));
        // Work delivered is never negative: an idle quarter can read a
        // few ulps below zero off the index's running integral.
        let mut row = vec![name.clone()];
        row.extend(series.iter().map(|v| format!("{:.0}", v.max(0.0))));
        rows.push(row);
    }
    print_table(&["site", "t0-t1", "t1-t2", "t2-t3", "t3-t4"], &rows);
    let early = started_at.iter().filter(|(_, f)| *f == 0).count();
    println!(
        "  sites active from the first quarter: {early} / {}",
        started_at.len()
    );
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    println!("Figure 9: workload diffusion across time at the site level");
    let (trace, makespan) = run(Scheduler::BandwidthCentric, small);
    report("bandwidth-centric (paper)", &trace, makespan);
    let (trace, makespan) = run(Scheduler::Fifo, small);
    report("FIFO ablation (§5.2: would diffuse uniformly)", &trace, makespan);
}
