//! `paper-analyst`: the paper's analyst, in process through
//! `Server::handle_line`, on the Fig. 8 two-application master-worker
//! trace of the 2,170-host Grid'5000 model, plus the NAS-DT traces of
//! Figs. 6–7 re-opened over the wire.

use std::sync::Arc;
use std::time::Instant;

use viva_platform::generators::{self, Grid5000Config, TwoClustersConfig};
use viva_server::{Command, Server, ServerLimits};
use viva_simflow::TracingConfig;
use viva_trace::RecoveryMode;
use viva_workloads::{run_dt, run_master_worker, AppSpec, Deployment, DtConfig, MwConfig};

use crate::analyst::{aggregate_line, group_line, render_line, slice_line, Analyst, Kind};
use crate::checks::{self, TraceModel};
use crate::exec::{Exec, Mirror};
use crate::util::{field, field_num, kind, metric, Outcome, Rng};
use crate::Args;

const G: &str = "g";
const SET_UPS: usize = 3;

/// Everything set-up makes: the loaded server and the inputs the loop
/// replays, with the benchmark's own models of each trace.
struct Inputs {
    exec: Exec,
    model: TraceModel,
    sites: Vec<String>,
    clusters: Vec<String>,
    hosts: usize,
    /// Wire lines re-opening the NAS-DT traces, with their models.
    dt: Vec<(&'static str, String, TraceModel)>,
    notes: Vec<String>,
}

fn set_up(args: &Args, work: &std::path::Path) -> (Inputs, f64) {
    let t0 = Instant::now();
    // The paper's platform and applications, as in Fig. 8; the seed
    // drives the analyst's path through them.
    let cfg = Grid5000Config::default();
    let platform = generators::grid5000(&cfg).expect("grid5000 platform");
    let apps = vec![
        AppSpec {
            name: "app1".into(),
            master: viva_bench::best_connected_host(&platform, 0),
            config: MwConfig {
                tasks: 4000,
                task_flops: 50_000.0,
                ..MwConfig::cpu_bound()
            },
        },
        AppSpec {
            name: "app2".into(),
            master: viva_bench::best_connected_host(&platform, 1),
            config: MwConfig {
                tasks: 3000,
                task_flops: 20_000.0,
                ..MwConfig::network_bound()
            },
        },
    ];
    let tracing = TracingConfig {
        record_messages: false,
        record_accounts: true,
    };
    let sim = Instant::now();
    let run = run_master_worker(platform.clone(), &apps, Some(tracing));
    let sim_s = sim.elapsed().as_secs_f64();
    let csv = viva_trace::export::to_csv(&run.trace.expect("traced run"));

    let mirror = args.trace.then(|| Mirror::new(work.to_path_buf()));
    let mut exec = Exec::new(Arc::new(Server::new(ServerLimits::default())), mirror);
    if let Some(m) = exec.mirror.as_mut() {
        m.layers.add("simflow.run_s", sim_s);
    }
    let loaded = exec.execute(Command::LoadTrace {
        session: G.into(),
        mode: RecoveryMode::Strict,
        text: csv.clone(),
        trace: None,
    });
    assert_eq!(
        kind(&loaded),
        Ok("loaded"),
        "the Grid'5000 trace loads: {loaded:.200}"
    );

    // NAS-DT class A on the two-cluster platform (Figs. 6–7).
    let two = TwoClustersConfig::default();
    let mut dt = Vec::new();
    let mut dt_texts = Vec::new();
    for (session, deployment) in [
        ("dt-seq", Deployment::Sequential),
        ("dt-loc", Deployment::Locality),
    ] {
        let p = generators::two_clusters(&two).expect("two-cluster platform");
        let tracing = TracingConfig {
            record_messages: false,
            record_accounts: false,
        };
        let run = run_dt(p, &DtConfig::default(), deployment, Some(tracing));
        let text = viva_trace::export::to_csv(&run.trace.expect("traced run"));
        let line = Command::LoadTrace {
            session: session.into(),
            mode: RecoveryMode::Strict,
            text: text.clone(),
            trace: None,
        }
        .encode();
        dt.push((session, line, TraceModel::default()));
        dt_texts.push(text);
    }
    let secs = t0.elapsed().as_secs_f64();

    // The benchmark's own reading of what it generated (not timed).
    for (d, text) in dt.iter_mut().zip(&dt_texts) {
        d.2 = TraceModel::parse(text);
    }
    let model = TraceModel::parse(&csv);
    let notes = vec![format!(
        "grid5000 platform seed {:#x}: {} sites, {} clusters, {} hosts; trace {} containers, {:.2} MB CSV; NAS-DT uploads {} and {} bytes",
        cfg.seed,
        platform.sites().len(),
        platform.clusters().len(),
        platform.hosts().len(),
        field(&loaded, "containers").unwrap_or("?"),
        csv.len() as f64 / 1e6,
        dt[0].1.len(),
        dt[1].1.len(),
    )];
    let inputs = Inputs {
        exec,
        sites: platform
            .sites()
            .iter()
            .map(|s| s.name().to_owned())
            .collect(),
        clusters: platform
            .clusters()
            .iter()
            .map(|c| c.name().to_owned())
            .collect(),
        hosts: platform.hosts().len(),
        model,
        dt,
        notes,
    };
    (inputs, secs)
}

pub fn run(args: &Args, work: &std::path::Path) -> Outcome {
    let mut setups = Vec::new();
    let mut inputs = None;
    // Set-up time is an end-to-end metric; a traced run sets up once.
    let set_ups = if args.trace { 1 } else { SET_UPS };
    for _ in 0..set_ups {
        // Free the previous set-up first: peak memory is a metric.
        drop(inputs.take());
        let (i, s) = set_up(args, work);
        setups.push(s);
        inputs = Some(i);
    }
    let Inputs {
        mut exec,
        model,
        sites,
        clusters,
        hosts,
        dt,
        notes,
    } = inputs.expect("set up at least once");
    let mut out = Outcome {
        notes,
        ..Outcome::default()
    };

    let site_ids = model.ids_of_kind("site");
    let cluster_ids = model.ids_of_kind("cluster");
    let host_ids = model.ids_of_kind("host");
    out.check(
        site_ids.len() == sites.len() && host_ids.len() == hosts,
        || {
            format!(
                "trace has {} sites / {} hosts, generator made {} / {hosts}",
                site_ids.len(),
                host_ids.len(),
                sites.len()
            )
        },
    );
    let finer_than_site = cluster_ids.union(&host_ids).copied().collect();
    let none = Default::default();

    let render = render_line(G, 1200, 900);
    let mut rng = Rng::new(args.seed);
    let makespan = model.end;
    let width = makespan / 4.0;
    // The sweep's phase: where in the first eighth of the run it starts.
    let phase = rng.range(0.0, makespan / 8.0);
    let mut slice = (model.start, model.end);
    let mut revisits = 0usize;
    let mut a = Analyst::new(&mut exec);
    let started = Instant::now();
    let mut round = 0usize;
    while round == 0 || started.elapsed().as_secs_f64() < args.seconds as f64 {
        // 1. Time-slice sweep, forward then back (Fig. 9).
        for k in [0usize, 1, 2, 3, 2, 1, 0] {
            let s0 = phase + k as f64 * makespan / 8.0;
            let s1 = s0 + width;
            let (answer, _) = a.step(Kind::Slice, &slice_line(G, s0, s1), &render);
            slice = model.clamp(s0, s1);
            out.check(
                field_num(&answer, "start") == Some(slice.0)
                    && field_num(&answer, "end") == Some(slice.1),
                || format!("slice [{s0}, {s1}] answered {answer}"),
            );
        }
        revisits += 3;
        // 2. Level jumps (Fig. 8) and aggregates of collapsed groups.
        let site = &sites[rng.below(sites.len() as u64) as usize];
        for depth in [0u32, 1, 2] {
            let line = format!(r#"{{"cmd":"collapse_at_depth","session":"{G}","depth":{depth}}}"#);
            let (_, frame) = a.step(Kind::Regroup, &line, &render);
            let drawn = checks::drawn(&frame);
            match depth {
                1 => out.check(
                    checks::level_shown(&drawn, &site_ids, &finer_than_site),
                    || {
                        format!(
                            "site-level frame draws {} nodes, not the {} sites alone",
                            drawn.len(),
                            site_ids.len()
                        )
                    },
                ),
                2 => out.check(checks::level_shown(&drawn, &cluster_ids, &host_ids), || {
                    format!(
                        "cluster-level frame draws {} nodes, not the {} clusters alone",
                        drawn.len(),
                        cluster_ids.len()
                    )
                }),
                _ => {}
            }
            if depth == 1 {
                for app in ["power_used:app1", "power_used:app2"] {
                    let (answer, _) = a.step(
                        Kind::Other("aggregate"),
                        &aggregate_line(G, app, site),
                        &render,
                    );
                    check_aggregate(&mut out, &model, &answer, site, app, slice);
                }
            }
        }
        let (_, frame) = a.step(
            Kind::Regroup,
            &format!(r#"{{"cmd":"expand_all","session":"{G}"}}"#),
            &render,
        );
        let drawn = checks::drawn(&frame);
        out.check(checks::level_shown(&drawn, &host_ids, &none), || {
            format!(
                "host-level frame draws {} of the {} hosts",
                drawn.intersection(&host_ids).count(),
                host_ids.len()
            )
        });
        // 3. Collapse and expand single groups at host level.
        let cluster = &clusters[rng.below(clusters.len() as u64) as usize];
        for (cmd, group) in [
            ("collapse", site),
            ("expand", site),
            ("collapse", cluster),
            ("expand", cluster),
        ] {
            let (answer, _) = a.step(Kind::Regroup, &group_line(cmd, G, group), &render);
            out.check(kind(&answer) == Ok("done"), || {
                format!("{cmd} {group}: {answer}")
            });
        }
        // 4. A relax batch at host level.
        let (answer, _) = a.step(
            Kind::Other("relax"),
            &format!(r#"{{"cmd":"relax","session":"{G}","steps":5}}"#),
            &render,
        );
        out.check(field_num(&answer, "steps") == Some(5.0), || {
            format!("relax: {answer}")
        });
        // 5. Re-open the NAS-DT traces over the wire (Figs. 6–7).
        let mut ends = Vec::new();
        for (session, line, dt_model) in &dt {
            let (answer, frame) =
                a.step(Kind::Other("open"), line, &render_line(session, 800, 600));
            ends.push(field_num(&answer, "end").unwrap_or(f64::NAN));
            out.check(
                field_num(&answer, "end") == Some(dt_model.end) && kind(&frame) == Ok("frame"),
                || format!("open {session}: {:.200}", answer),
            );
        }
        out.check(checks::locality_faster(ends[0], ends[1]), || {
            format!(
                "locality makespan {} not below sequential {}",
                ends[1], ends[0]
            )
        });
        round += 1;
    }
    let loop_s = started.elapsed().as_secs_f64();

    // Fig. 6 after the timed loop: every link's utilization from the
    // server's aggregates, each checked against the model.
    let (session, _, dt_model) = &dt[0];
    let answer = a
        .exec
        .call(&slice_line(session, dt_model.start, dt_model.end));
    out.check(kind(&answer) == Ok("slice"), || {
        format!("dt slice: {answer}")
    });
    let mut utilization = Vec::new();
    for link in dt_model.names_of_kind("link") {
        let used = a
            .exec
            .call(&aggregate_line(session, "bandwidth_used", &link));
        let cap = a.exec.call(&aggregate_line(session, "bandwidth", &link));
        let span = (dt_model.start, dt_model.end);
        check_aggregate(&mut out, dt_model, &used, &link, "bandwidth_used", span);
        check_aggregate(&mut out, dt_model, &cap, &link, "bandwidth", span);
        let (u, c) = (
            field_num(&used, "integral").unwrap_or(0.0),
            field_num(&cap, "integral").unwrap_or(0.0),
        );
        utilization.push((link, if c > 0.0 { u / c } else { 0.0 }));
    }
    out.check(checks::backbone_most_used(&utilization), || {
        format!("sequential NAS-DT: inter-cluster links are not the most used: {utilization:?}")
    });

    let s = &a.samples;
    out.end_to_end = s.end_to_end(&setups, a.ops_per_s());
    out.detail = s.tails();
    out.detail.extend([
        metric("open_ms", s.kind_p50("open"), "ms"),
        metric("relax_ms", s.kind_p50("relax"), "ms"),
        metric("interactions_per_s", a.ops_per_s(), "1/s"),
    ]);
    out.notes.push(format!(
        "{round} rounds in {loop_s:.1} s; {}; {revisits} of {} interactions revisit an earlier slice",
        s.counts(),
        s.ops.len()
    ));
    out.tally = std::mem::take(&mut a.exec.tally);
    if let Some(m) = exec.mirror.take() {
        out.layers = m.finish().report();
    }
    out
}

/// One `aggregate` answer against the model's integral over `slice`.
fn check_aggregate(
    out: &mut Outcome,
    model: &TraceModel,
    answer: &str,
    group: &str,
    metric: &str,
    slice: (f64, f64),
) {
    let want = model.integral(group, metric, slice.0, slice.1);
    out.check(
        want.is_some_and(|w| checks::aggregate_matches(answer, w)),
        || {
            format!(
                "aggregate {metric} over {group} in [{}, {}]: got {:?}, model {want:?}",
                slice.0,
                slice.1,
                field_num(answer, "integral")
            )
        },
    );
}
