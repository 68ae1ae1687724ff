//! One benchmark for viva-server: three workloads that drive the server
//! the way its users do, with outputs checked against the benchmark's
//! own computations.
//!
//! ```text
//! cargo run --release --manifest-path viva-perf/Cargo.toml -- \
//!     --workload paper-analyst --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path viva-perf/Cargo.toml -- --self-test
//! cargo run --release --manifest-path viva-perf/Cargo.toml -- --probe decode
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The lines
//! before it are the human report. See README.md.

mod analyst;
mod checks;
mod exec;
mod live;
mod paper;
mod probe;
mod util;
mod zoom;

use std::path::PathBuf;
use std::process::ExitCode;

use util::Metric;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: viva-perf --workload <paper-analyst|zoom-100k|live-tcp> --seed <n> --seconds <n> --trace <0|1>
       viva-perf --self-test
       viva-perf --probe <decode|sleep|budget|expand>";

/// What the command line asks for.
enum Mode {
    Run(Args),
    SelfTest,
    Probe(String),
}

fn parse_args() -> Result<Mode, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            return Ok(Mode::SelfTest);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--probe" => return Ok(Mode::Probe(value)),
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = value
                    .parse::<u8>()
                    .map_err(|e| format!("--trace {value}: {e}"))?
                    == 1
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Mode::Run(args))
}

/// The commit this checkout was built from, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_owned(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown (not a git checkout)".to_owned()
    } else {
        id.to_owned()
    }
}

fn json_metrics(ms: &[Metric]) -> String {
    ms.iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {:?}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Mode::Run(a)) => a,
        Ok(Mode::Probe(name)) => {
            return match probe::run(&name) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            };
        }
        Ok(Mode::SelfTest) => {
            let bad = checks::self_test();
            for b in &bad {
                println!("self-test: {b}");
            }
            println!(
                "self-test: {}",
                if bad.is_empty() {
                    "every check rejects its perturbed answer"
                } else {
                    "FAILED"
                }
            );
            return if bad.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "paper-analyst" => paper::run,
        "zoom-100k" => zoom::run,
        "live-tcp" => live::run,
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Scratch space (journals) inside the benchmark's own directory.
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }

    let self_test = checks::self_test();
    let out = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);

    println!(
        "viva-perf {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("commit {}", commit());
    println!(
        "available_parallelism {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for n in &out.notes {
        println!("{n}");
    }
    println!(
        "operations attempted/failed by class: {}",
        out.tally.summary()
    );
    for m in out.end_to_end.iter().chain(&out.detail).chain(&out.layers) {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for f in self_test.iter().chain(&out.check_failures) {
        println!("CHECK FAILED: {f}");
    }
    let correct = self_test.is_empty() && out.check_failures.is_empty();
    let metrics = if args.trace {
        &out.layers
    } else {
        &out.end_to_end
    };
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.tally.attempted(),
        out.tally.failed(),
        json_metrics(metrics)
    );
    ExitCode::SUCCESS
}
