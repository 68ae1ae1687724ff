//! Small helpers shared by the workloads: a seeded generator, order
//! statistics, peak memory, a linear scanner for response lines, and
//! the per-class operation tally.

use std::collections::BTreeMap;

use viva_server::CommandClass;

/// SplitMix64: the benchmark's own seeded generator, so its inputs do
/// not depend on any generator inside the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// Nearest-rank percentile `p` (0..=100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Interquartile mean: the mean of the samples between the first and
/// third quartiles. Robust to outliers like a median, and to a mix of
/// operation groups with different costs, where a median sits on the
/// boundary between two groups and jumps from one to the other.
pub fn iq_mean(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    mean(&s[n / 4..n - n / 4])
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The raw text of a top-level field's value in one response line,
/// found by a single forward scan (the program's own decoder is not
/// used: it is quadratic in the line length, and the checks must not
/// lean on the code they check). Strings come back still escaped.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    if let Some(body) = rest.strip_prefix('"') {
        let bytes = body.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => return Some(&body[..i]),
                _ => i += 1,
            }
        }
        None
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(&rest[..end])
    }
}

pub fn field_num(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

/// The response kind: `Ok("frame")`, or `Err("no_session")` for an
/// error line.
pub fn kind(line: &str) -> Result<&str, &str> {
    if line.starts_with("{\"err\":") {
        Err(field(line, "err").unwrap_or("?"))
    } else {
        Ok(field(line, "ok").unwrap_or("?"))
    }
}

/// Operations attempted and failed, per command class.
#[derive(Debug, Default)]
pub struct Tally {
    classes: BTreeMap<&'static str, (u64, u64)>,
}

impl Tally {
    /// Books one command by its wire name; `ok` is whether it succeeded.
    pub fn note(&mut self, cmd: &str, ok: bool) {
        let class = CommandClass::of_name(cmd).map_or("other", CommandClass::label);
        let e = self.classes.entry(class).or_default();
        e.0 += 1;
        if !ok {
            e.1 += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        for (k, (a, f)) in other.classes {
            let e = self.classes.entry(k).or_default();
            e.0 += a;
            e.1 += f;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.classes.values().map(|c| c.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.classes.values().map(|c| c.1).sum()
    }

    pub fn summary(&self) -> String {
        self.classes
            .iter()
            .map(|(k, (a, f))| format!("{k} {a}/{f}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// One metric as printed: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Failed output checks, one line each; empty means correct.
    pub check_failures: Vec<String>,
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// Workload-specific figures the report prints beside them.
    pub detail: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Free-form provenance lines (rates, sizes, generator lateness).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.check_failures.len() < 20 {
            self.check_failures.push(what());
        }
    }
}
