//! `zoom-100k`: an analyst on a seeded synthetic 100k-host grid (sites
//! of clusters of hosts, the fig_scale construction), in process. Level
//! of detail renders follow a camera path from the overview through a
//! dense mid-zoom to a deep zoom, interleaved with slice changes and
//! site collapse/expand. No `relax`: layout stays idle.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use viva_server::{Command, Server, ServerLimits};
use viva_trace::RecoveryMode;

use crate::analyst::{aggregate_line, camera_line, group_line, slice_line, Analyst, Kind};
use crate::checks::aggregate_matches;
use crate::exec::{Exec, Mirror};
use crate::util::{field, field_num, kind, metric, ms, Outcome, Rng};
use crate::Args;

const Z: &str = "z";
const SET_UPS: usize = 3;
const SITES: usize = 10;
const CLUSTERS: usize = 10;
const HOSTS: usize = 1000;
/// `power_used` breakpoints per host, at t = 0, 1, ..., STEPS - 1; the
/// trace spans `[0, STEPS]`.
const STEPS: usize = 6;

/// The camera path: overview, mid-zoom, dense mid-zoom, deep zoom.
const CAMERA: [(f64, f64, f64); 8] = [
    (1.0, 0.0, 0.0),
    (2.0, 100.0, 50.0),
    (4.0, 200.0, 100.0),
    (8.0, 250.0, 150.0),
    (16.0, 300.0, 200.0),
    (32.0, 350.0, 250.0),
    (64.0, 500.0, 300.0),
    (256.0, 700.0, 500.0),
];

/// The generator: every value the trace holds, as closed forms of the
/// host number and the seed.
struct Grid {
    shift: usize,
    power_shift: usize,
}

impl Grid {
    fn new(seed: u64) -> Grid {
        let mut rng = Rng::new(seed);
        Grid {
            shift: rng.below(11) as usize,
            power_shift: rng.below(5) as usize,
        }
    }

    fn power(&self, host: usize) -> f64 {
        (100 + 10 * ((host + self.power_shift) % 5)) as f64
    }

    fn used(&self, host: usize, t: usize) -> f64 {
        (((t + host * 7 + self.shift) % 11) * 10) as f64
    }

    fn csv(&self) -> String {
        let mut out = String::with_capacity(24 << 20);
        let _ = writeln!(out, "span,0.0,{:?}", STEPS as f64);
        let mut id = 1usize;
        let mut ids = Vec::with_capacity(SITES * CLUSTERS * HOSTS);
        for s in 0..SITES {
            let site = id;
            id += 1;
            let _ = writeln!(out, "container,{site},0,site,site{s}");
            for c in 0..CLUSTERS {
                let cluster = id;
                id += 1;
                let _ = writeln!(out, "container,{cluster},{site},cluster,s{s}c{c}");
                for h in 0..HOSTS {
                    let _ = writeln!(out, "container,{id},{cluster},host,s{s}c{c}h{h}");
                    ids.push(id);
                    id += 1;
                }
            }
        }
        out.push_str("metric,0,MFlop/s,power\nmetric,1,MFlop/s,power_used\n");
        for (n, file_id) in ids.iter().enumerate() {
            let _ = writeln!(out, "var,0.0,{file_id},0,{:?}", self.power(n));
        }
        for t in 0..STEPS {
            for (n, file_id) in ids.iter().enumerate() {
                let _ = writeln!(out, "var,{:?},{file_id},1,{:?}", t as f64, self.used(n, t));
            }
        }
        out
    }

    /// Host numbers under a site (`cluster = None`) or one cluster.
    fn hosts(site: usize, cluster: Option<usize>) -> std::ops::Range<usize> {
        let base = site * CLUSTERS * HOSTS;
        match cluster {
            None => base..base + CLUSTERS * HOSTS,
            Some(c) => base + c * HOSTS..base + (c + 1) * HOSTS,
        }
    }

    /// Closed-form `power_used` integral over hosts × `[a, b]`, for
    /// integer slice bounds.
    fn used_integral(&self, hosts: std::ops::Range<usize>, a: usize, b: usize) -> f64 {
        hosts
            .map(|n| (a..b).map(|t| self.used(n, t)).sum::<f64>())
            .sum()
    }
}

/// The grid's CSV for `seed`.
pub fn grid_csv(seed: u64) -> String {
    Grid::new(seed).csv()
}

/// Server limits that admit the grid: the default budget refuses
/// 100,000 containers or more.
pub fn limits() -> ServerLimits {
    let mut limits = ServerLimits::default();
    limits.load_budget.max_containers = 200_000;
    limits
}

fn set_up(args: &Args, work: &std::path::Path) -> (Exec, f64, usize) {
    let t0 = Instant::now();
    let text = grid_csv(args.seed);
    let bytes = text.len();
    let mirror = args.trace.then(|| Mirror::new(work.to_path_buf()));
    let mut exec = Exec::new(Arc::new(Server::new(limits())), mirror);
    let loaded = exec.execute(Command::LoadTrace {
        session: Z.into(),
        mode: RecoveryMode::Strict,
        text,
        trace: None,
    });
    assert_eq!(
        kind(&loaded),
        Ok("loaded"),
        "the 100k-host trace loads: {loaded:.300}"
    );
    (exec, t0.elapsed().as_secs_f64(), bytes)
}

fn cam(i: usize) -> String {
    camera_line(Z, CAMERA[i].0, CAMERA[i].1, CAMERA[i].2)
}

/// One browsing unit from the initial layout (a fresh session over the
/// stored trace: no re-parse, no re-index): the camera path with two
/// slice changes, between a narrow and the full window, then a jump to
/// the site level and back to hosts.
fn browse(a: &mut Analyst, out: &mut Outcome) {
    let answer = a.exec.call(&format!(
        r#"{{"cmd":"attach","session":"{Z}","trace":"{Z}"}}"#
    ));
    out.check(kind(&answer) == Ok("attached"), || {
        format!("attach: {answer}")
    });
    for i in 0..CAMERA.len() {
        a.render(Kind::Other("camera"), &cam(i));
        if i == 2 || i == 7 {
            let window = if i == 2 { (1, 4) } else { (0, STEPS) };
            let (answer, _) = a.step(
                Kind::Slice,
                &slice_line(Z, window.0 as f64, window.1 as f64),
                &cam(i),
            );
            out.check(field_num(&answer, "end") == Some(window.1 as f64), || {
                format!("slice: {answer}")
            });
        }
    }
    let (_, frame) = a.step(
        Kind::Regroup,
        &format!(r#"{{"cmd":"collapse_at_depth","session":"{Z}","depth":1}}"#),
        &cam(0),
    );
    out.check(kind(&frame) == Ok("frame"), || {
        format!("render: {frame:.200}")
    });
    let (_, frame) = a.step(
        Kind::Regroup,
        &format!(r#"{{"cmd":"expand_all","session":"{Z}"}}"#),
        &cam(0),
    );
    out.check(field(&frame, "svg").is_some(), || {
        format!("render: {frame:.200}")
    });
}

pub fn run(args: &Args, work: &std::path::Path) -> Outcome {
    let mut setups = Vec::new();
    let mut last: Option<Exec> = None;
    let mut bytes = 0;
    // Set-up time is an end-to-end metric; a traced run sets up once.
    let set_ups = if args.trace { 1 } else { SET_UPS };
    for _ in 0..set_ups {
        // Free the previous set-up first: peak memory is a metric.
        drop(last.take());
        let (exec, s, b) = set_up(args, work);
        setups.push(s);
        bytes = b;
        last = Some(exec);
    }
    let mut exec = last.expect("set up at least once");
    let grid = Grid::new(args.seed);
    let mut out = Outcome::default();
    out.notes.push(format!(
        "{SITES} sites x {CLUSTERS} clusters x {HOSTS} hosts, {} events, {:.1} MB CSV; load budget 200,000 containers",
        SITES * CLUSTERS * HOSTS * (STEPS + 1),
        bytes as f64 / 1e6
    ));

    let mut a = Analyst::new(&mut exec);
    // Browsing units for the first half of the run, the site block,
    // browsing units for the second half: the samples span the run.
    let (s, c) = (3, 7);
    let site = format!("site{s}");
    let cluster = format!("s{s}c{c}");
    let started = Instant::now();
    let half = args.seconds as f64 / 2.0;
    let mut units = 0usize;
    while units == 0 || started.elapsed().as_secs_f64() < half {
        browse(&mut a, &mut out);
        units += 1;
    }
    // Collapse a site, read aggregates of it and of one cluster, expand
    // it again.
    let (answer, _) = a.step(Kind::Regroup, &group_line("collapse", Z, &site), &cam(4));
    out.check(kind(&answer) == Ok("done"), || {
        format!("collapse {site}: {answer}")
    });
    let (answer, _) = a.step(Kind::Slice, &slice_line(Z, 1.0, 4.0), &cam(4));
    out.check(field_num(&answer, "end") == Some(4.0), || {
        format!("slice: {answer}")
    });
    for (group, hosts) in [
        (&site, Grid::hosts(s, None)),
        (&cluster, Grid::hosts(s, Some(c))),
    ] {
        let (answer, _) = a.step(
            Kind::Other("aggregate"),
            &aggregate_line(Z, "power_used", group),
            &cam(4),
        );
        let want = grid.used_integral(hosts, 1, 4);
        out.check(aggregate_matches(&answer, want), || {
            format!(
                "aggregate power_used over {group} in [1, 4]: got {:?}, closed form {want}",
                field_num(&answer, "integral")
            )
        });
    }
    // The expand and its render are timed apart: `apply_state` is
    // quadratic in the size of an expand (README, fault 4), and its one
    // sample of about 20 s would otherwise set the run's throughput.
    let t0 = Instant::now();
    let answer = a.exec.call(&group_line("expand", Z, &site));
    let frame = a.exec.call(&cam(6));
    let expand_ms = ms(t0.elapsed());
    out.check(
        kind(&answer) == Ok("done") && kind(&frame) == Ok("frame"),
        || format!("expand {site}: {answer:.200} then {frame:.200}"),
    );
    let resumed = Instant::now();
    let first_half = units;
    while units == first_half || resumed.elapsed().as_secs_f64() < half {
        browse(&mut a, &mut out);
        units += 1;
    }
    let loop_s = started.elapsed().as_secs_f64();

    let s = &a.samples;
    out.end_to_end = s.end_to_end(&setups, a.ops_per_s());
    out.detail = s.tails();
    out.detail.extend([
        metric("camera_ms", s.kind_p50("camera"), "ms"),
        metric("interactions_per_s", a.ops_per_s(), "1/s"),
        metric("expand_ms", expand_ms, "ms"),
    ]);
    out.notes.push(format!(
        "{units} browsing units and one site collapse/expand (the expand timed apart) in {loop_s:.1} s; {}",
        s.counts()
    ));
    out.tally = std::mem::take(&mut a.exec.tally);
    if let Some(m) = exec.mirror.take() {
        out.layers = m.finish().report();
    }
    out
}
