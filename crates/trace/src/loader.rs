//! Streaming, budgeted, recoverable trace ingestion.
//!
//! Trace files cross a **trust boundary**: they are produced by
//! external tracers (SMPI/SimGrid, Pajé-style dumps), copied over
//! flaky networks, truncated by full disks, or hand-edited. The
//! whole-string, fail-on-first-error [`crate::export::from_csv`] parser
//! is the wrong shape for that boundary, so this module provides the
//! hardened path every untrusted byte goes through:
//!
//! * **streaming** — [`TraceLoader::load`] reads any [`io::BufRead`]
//!   line by line; a trace never has to fit in memory twice, and a
//!   single over-long line is drained, not buffered;
//! * **recoverable** — [`RecoveryMode::Strict`] aborts on the first
//!   malformed record (with a line number *and* byte offset),
//!   [`RecoveryMode::Lenient`] skips it, records a capped diagnostic
//!   log and keeps going;
//! * **bounded** — a [`ResourceBudget`] caps events, containers, line
//!   length and the estimated memory footprint; exhaustion degrades to
//!   a typed [`BudgetBreach`] instead of an OOM kill;
//! * **quarantining** — non-finite (`NaN`/`±∞`) metric samples are
//!   counted per `(container, metric)` on the resulting [`Trace`]
//!   instead of poisoning downstream integrals; views surface the
//!   counter so the analyst knows the picture is partial.
//!
//! ```
//! use viva_trace::{RecoveryMode, ResourceBudget, TraceLoader};
//!
//! let text = "span,0.0,10.0\n\
//!             container,1,0,host,h\n\
//!             metric,0,MFlop/s,power\n\
//!             var,0.0,1,0,100.0\n\
//!             var,2.0,1,0,NaN\n\
//!             this line is garbage\n";
//! let report = TraceLoader::new()
//!     .mode(RecoveryMode::Lenient)
//!     .budget(ResourceBudget::default())
//!     .load(text.as_bytes())?;
//! assert_eq!(report.events, 1, "one good sample survived");
//! assert_eq!(report.quarantined, 1, "the NaN sample was quarantined");
//! assert_eq!(report.dropped, 2, "NaN sample + garbage line");
//! assert_eq!(report.trace.end(), 10.0);
//! # Ok::<(), viva_trace::TraceError>(())
//! ```

use std::fmt;
use std::io::{self, BufRead};

use viva_obs::Recorder;

use crate::builder::TraceBuilder;
use crate::container::{ContainerId, ContainerKind, ContainerTree};
use crate::error::TraceError;
use crate::metric::MetricId;
use crate::state::StateRecord;
use crate::trace::Trace;

/// What the loader does when a record cannot be ingested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// The first malformed record aborts the load with a line-numbered,
    /// byte-offset-precise error. The right mode for data you control
    /// (round-tripping your own exports, golden files).
    #[default]
    Strict,
    /// Malformed records are skipped and recorded in a capped
    /// diagnostic log; the load continues and returns the subset trace
    /// that survived. The right mode for foreign or damaged data.
    Lenient,
}

/// Which budget axis was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// Total applied event records (`var` + `state` + `link`).
    Events,
    /// Container records.
    Containers,
    /// Bytes in a single line.
    LineBytes,
    /// Estimated retained memory, bytes.
    MemoryBytes,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetKind::Events => "event count",
            BudgetKind::Containers => "container count",
            BudgetKind::LineBytes => "line length",
            BudgetKind::MemoryBytes => "estimated memory",
        })
    }
}

/// A typed record of a budget axis being exhausted: where the load
/// stopped and which limit stopped it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetBreach {
    /// The exhausted axis.
    pub kind: BudgetKind,
    /// The configured limit on that axis.
    pub limit: usize,
    /// 1-based line at which the breach was detected.
    pub line: usize,
    /// Byte offset (from the start of the stream) of that line.
    pub byte_offset: u64,
}

impl fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} budget ({}) exhausted at line {} (byte {})",
            self.kind, self.limit, self.line, self.byte_offset
        )
    }
}

/// Hard ceilings the loader enforces while reading untrusted input.
///
/// The default budget is sized for interactive analysis on a
/// workstation; a service ingesting third-party uploads would configure
/// much lower ceilings. [`ResourceBudget::unlimited`] disables every
/// axis (used by [`crate::export::from_csv`], whose input is already a
/// in-memory string).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Maximum applied event records (`var` + `state` + `link`).
    pub max_events: usize,
    /// Maximum container records.
    pub max_containers: usize,
    /// Maximum bytes in one line. Longer lines are drained from the
    /// stream without being buffered, so a pathological 10 MB line
    /// costs its I/O, never its memory.
    pub max_line_bytes: usize,
    /// Ceiling on the loader's coarse estimate of retained bytes
    /// (signals, states, links, names).
    pub max_memory_bytes: usize,
    /// How many [`LoadDiagnostic`]s a `Lenient` load retains; further
    /// skips are still *counted* but not described (an adversarial
    /// all-garbage file must not grow an unbounded error log).
    pub max_diagnostics: usize,
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget {
            max_events: 50_000_000,
            max_containers: 1_000_000,
            max_line_bytes: 1 << 20,        // 1 MiB
            max_memory_bytes: 2 << 30,      // 2 GiB estimate
            max_diagnostics: 64,
        }
    }
}

impl ResourceBudget {
    /// A budget with every axis disabled.
    pub fn unlimited() -> ResourceBudget {
        ResourceBudget {
            max_events: usize::MAX,
            max_containers: usize::MAX,
            max_line_bytes: usize::MAX,
            max_memory_bytes: usize::MAX,
            max_diagnostics: 64,
        }
    }
}

/// One skipped record of a `Lenient` load: where and why.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadDiagnostic {
    /// 1-based line number of the skipped record.
    pub line: usize,
    /// Byte offset of the start of that line.
    pub byte_offset: u64,
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for LoadDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {} (byte {}): {}", self.line, self.byte_offset, self.message)
    }
}

/// The outcome of a successful (possibly degraded) load.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The trace built from every record that survived.
    pub trace: Trace,
    /// Lines read (including blank/comment lines).
    pub lines: usize,
    /// Bytes consumed from the stream.
    pub bytes: u64,
    /// Event records applied (`var` + `state` + `link`).
    pub events: usize,
    /// Records dropped (malformed, out-of-order, quarantined, …).
    /// Always 0 in `Strict` mode (a drop would have been an error).
    pub dropped: usize,
    /// Non-finite metric samples quarantined (a subset of `dropped`);
    /// the per-`(container, metric)` breakdown lives on
    /// [`Trace::quarantined`].
    pub quarantined: usize,
    /// First [`ResourceBudget::max_diagnostics`] drop reasons.
    pub diagnostics: Vec<LoadDiagnostic>,
    /// Set when a budget axis stopped the load early; the trace holds
    /// everything ingested up to the breach.
    pub breach: Option<BudgetBreach>,
}

impl LoadReport {
    /// Whether every record of the input was ingested.
    pub fn is_clean(&self) -> bool {
        self.dropped == 0 && self.breach.is_none()
    }

    /// One-line deterministic summary, used by the fuzz harness to
    /// assert error-report stability across runs.
    pub fn summary(&self) -> String {
        format!(
            "lines={} bytes={} events={} dropped={} quarantined={} breach={}",
            self.lines,
            self.bytes,
            self.events,
            self.dropped,
            self.quarantined,
            match &self.breach {
                Some(b) => b.to_string(),
                None => "none".to_owned(),
            }
        )
    }
}

/// Streaming trace reader; see the [module docs](self) for the threat
/// model. Construct with [`TraceLoader::new`], configure with
/// [`mode`](TraceLoader::mode) / [`budget`](TraceLoader::budget), run
/// with [`load`](TraceLoader::load).
#[derive(Debug, Clone, Default)]
pub struct TraceLoader {
    mode: RecoveryMode,
    budget: ResourceBudget,
    recorder: Recorder,
}

impl TraceLoader {
    /// A `Strict` loader with the default budget.
    pub fn new() -> TraceLoader {
        TraceLoader {
            mode: RecoveryMode::Strict,
            budget: ResourceBudget::default(),
            recorder: Recorder::disabled(),
        }
    }

    /// Sets the recovery mode.
    #[must_use]
    pub fn mode(mut self, mode: RecoveryMode) -> TraceLoader {
        self.mode = mode;
        self
    }

    /// Shorthand for `mode(RecoveryMode::Lenient)`.
    #[must_use]
    pub fn lenient(self) -> TraceLoader {
        self.mode(RecoveryMode::Lenient)
    }

    /// Sets the resource budget.
    #[must_use]
    pub fn budget(mut self, budget: ResourceBudget) -> TraceLoader {
        self.budget = budget;
        self
    }

    /// Wires an observability recorder: every load then reports line /
    /// byte / event / drop / quarantine tallies, budget-breach events,
    /// and the `trace.load` and `trace.finish` phases into it. The
    /// default disabled recorder costs nothing.
    #[must_use]
    pub fn recorder(mut self, recorder: Recorder) -> TraceLoader {
        self.recorder = recorder;
        self
    }

    /// Loads a trace from `reader`.
    ///
    /// # Errors
    ///
    /// * In `Strict` mode: [`TraceError::Parse`] on the first malformed
    ///   record, [`TraceError::BudgetExceeded`] on the first exhausted
    ///   budget axis.
    /// * In both modes: [`TraceError::Io`] when the stream itself
    ///   fails. A `Lenient` load never fails on *content*.
    pub fn load<R: BufRead>(&self, reader: R) -> Result<LoadReport, TraceError> {
        // Joins the tree of whatever command drove this load.
        let _load = self.recorder.phase("trace.load");
        let result = Ingest::new(self.mode, self.budget, self.recorder.clone()).run(reader);
        if self.recorder.is_enabled() {
            match &result {
                Ok(report) => {
                    self.recorder.counter("trace.loads").inc();
                    self.recorder.counter("trace.lines").add(report.lines as u64);
                    self.recorder.counter("trace.bytes").add(report.bytes);
                    self.recorder.counter("trace.events").add(report.events as u64);
                    self.recorder.counter("trace.dropped").add(report.dropped as u64);
                    self.recorder
                        .counter("trace.quarantined")
                        .add(report.quarantined as u64);
                    if let Some(b) = &report.breach {
                        self.recorder.counter("trace.budget_breaches").inc();
                        self.recorder.event("trace.budget_breach", &b.to_string());
                    }
                }
                Err(e) => {
                    self.recorder.counter("trace.load_errors").inc();
                    self.recorder.event("trace.load_error", &e.to_string());
                }
            }
        }
        result
    }

    /// Convenience: loads from an in-memory string.
    pub fn load_str(&self, text: &str) -> Result<LoadReport, TraceError> {
        self.load(text.as_bytes())
    }
}

/// Outcome of reading one bounded line.
enum LineRead {
    Eof,
    /// A complete line is in the buffer (newline stripped).
    Line,
    /// The line exceeded the byte cap; its tail was consumed and
    /// thrown away without being buffered.
    Oversized,
}

/// Reads one line into `buf`, never buffering more than `max + 1`
/// bytes. An over-long line is consumed (streamed, chunk by chunk) up
/// to its newline so the next read starts on a record boundary.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    max: usize,
) -> io::Result<(LineRead, u64)> {
    buf.clear();
    // Cap the speculative read at max + 1: one extra byte tells an
    // over-long line apart from one that is exactly `max` long.
    let cap = (max as u64).saturating_add(1);
    let n = <&mut R as io::Read>::take(&mut *reader, cap).read_until(b'\n', buf)? as u64;
    if n == 0 {
        return Ok((LineRead::Eof, 0));
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        return Ok((LineRead::Line, n));
    }
    if (buf.len() as u64) < cap {
        // EOF without a trailing newline: still a complete line.
        return Ok((LineRead::Line, n));
    }
    // Over-long: drain the remainder of the line without storing it.
    let mut drained = 0u64;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            break;
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                reader.consume(i + 1);
                drained += (i + 1) as u64;
                break;
            }
            None => {
                let len = chunk.len();
                reader.consume(len);
                drained += len as u64;
            }
        }
    }
    Ok((LineRead::Oversized, n + drained))
}

/// Mutable state of one load.
struct Ingest {
    mode: RecoveryMode,
    budget: ResourceBudget,
    recorder: Recorder,
    builder: TraceBuilder,
    /// `span` record, if one was seen: `(start, end)`.
    span: Option<(f64, f64)>,
    /// Completed state intervals (bypass the push/pop stack).
    states: Vec<StateRecord>,
    /// Container ids already declared by the file.
    containers_seen: usize,
    events: usize,
    dropped: usize,
    quarantined: usize,
    diagnostics: Vec<LoadDiagnostic>,
    /// Coarse running estimate of retained bytes.
    mem_estimate: usize,
}

/// Why a single record could not be applied.
pub(crate) enum RecordFault {
    /// Malformed or inconsistent: skip in `Lenient`, abort in `Strict`.
    Bad(String),
    /// A non-finite metric sample on a *valid* (container, metric,
    /// time): quarantined, never a hard error shape of its own — in
    /// `Strict` it still aborts (strict data must be fully finite).
    NonFinite { container: ContainerId, metric: MetricId, message: String },
}

impl Ingest {
    fn new(mode: RecoveryMode, budget: ResourceBudget, recorder: Recorder) -> Ingest {
        Ingest {
            mode,
            budget,
            recorder,
            builder: TraceBuilder::new(),
            span: None,
            states: Vec::new(),
            containers_seen: 0,
            events: 0,
            dropped: 0,
            quarantined: 0,
            diagnostics: Vec::new(),
            mem_estimate: 0,
        }
    }

    fn run<R: BufRead>(mut self, mut reader: R) -> Result<LoadReport, TraceError> {
        let mut buf: Vec<u8> = Vec::new();
        let mut lineno = 0usize;
        let mut offset = 0u64;
        let mut breach: Option<BudgetBreach> = None;
        loop {
            let line_start = offset;
            let (read, consumed) =
                read_line_bounded(&mut reader, &mut buf, self.budget.max_line_bytes)
                    .map_err(|e| TraceError::Io { message: e.to_string() })?;
            offset += consumed;
            match read {
                LineRead::Eof => break,
                LineRead::Oversized => {
                    lineno += 1;
                    let b = BudgetBreach {
                        kind: BudgetKind::LineBytes,
                        limit: self.budget.max_line_bytes,
                        line: lineno,
                        byte_offset: line_start,
                    };
                    match self.mode {
                        RecoveryMode::Strict => return Err(TraceError::BudgetExceeded(b)),
                        // A single over-long line is a per-record
                        // fault, not a load-wide exhaustion: skip it.
                        RecoveryMode::Lenient => self.skip(lineno, line_start, b.to_string()),
                    }
                    continue;
                }
                LineRead::Line => lineno += 1,
            }
            let text = String::from_utf8_lossy(&buf);
            let Some(record) = record(&text) else { continue };
            // Load-wide budgets are checked before the record is
            // applied, so the reported line is the first one *not*
            // ingested.
            if let Some(kind) = self.budget_check() {
                let limit = match kind {
                    BudgetKind::Events => self.budget.max_events,
                    BudgetKind::Containers => self.budget.max_containers,
                    BudgetKind::MemoryBytes => self.budget.max_memory_bytes,
                    BudgetKind::LineBytes => unreachable!("checked per line"),
                };
                let b = BudgetBreach { kind, limit, line: lineno, byte_offset: line_start };
                match self.mode {
                    RecoveryMode::Strict => return Err(TraceError::BudgetExceeded(b)),
                    RecoveryMode::Lenient => {
                        breach = Some(b);
                        break;
                    }
                }
            }
            if let Err(fault) = record.and_then(|(kind, rest)| self.apply_record(kind, rest)) {
                match (&fault, self.mode) {
                    (RecordFault::Bad(msg), RecoveryMode::Strict) => {
                        return Err(TraceError::Parse { line: lineno, message: msg.clone() });
                    }
                    (RecordFault::NonFinite { message, .. }, RecoveryMode::Strict) => {
                        return Err(TraceError::Parse { line: lineno, message: message.clone() });
                    }
                    (RecordFault::Bad(msg), RecoveryMode::Lenient) => {
                        self.skip(lineno, line_start, msg.clone());
                    }
                    (
                        RecordFault::NonFinite { container, metric, message },
                        RecoveryMode::Lenient,
                    ) => {
                        let (c, m, msg) = (*container, *metric, message.clone());
                        self.quarantined += 1;
                        self.builder.note_quarantined(c, m);
                        self.skip(lineno, line_start, msg);
                    }
                }
            }
        }
        // The finish phase (signal assembly, state sorting) is the
        // non-streaming tail of a load; timed separately so a slow load
        // can be blamed on parsing vs. assembly.
        let _finish = self.recorder.phase("trace.finish");
        let span_end = self.span.map_or(0.0, |(_, e)| e);
        self.builder.note_dropped(self.dropped as u64);
        let mut trace = self.builder.finish(span_end);
        self.states
            .sort_by(|a, b| a.container.cmp(&b.container).then(a.start.total_cmp(&b.start)));
        // States bypass the builder (they arrive pre-shaped, depth and
        // all), so fold their times into the span by hand — otherwise a
        // trace whose earliest record is a state would round-trip with
        // a later start than it was serialized with. When states are
        // the *only* events, they define the start outright (the
        // builder's 0.0 default never saw them).
        let builder_saw_events = trace.signal_count() > 0 || !trace.links().is_empty();
        if let Some(smin) = self.states.iter().map(|s| s.start).reduce(f64::min) {
            trace.start = if builder_saw_events { trace.start.min(smin) } else { smin };
        }
        if let Some(smax) = self.states.iter().map(|s| s.end).reduce(f64::max) {
            trace.end = trace.end.max(smax);
        }
        trace.states = self.states;
        Ok(LoadReport {
            trace,
            lines: lineno,
            bytes: offset,
            events: self.events,
            dropped: self.dropped,
            quarantined: self.quarantined,
            diagnostics: self.diagnostics,
            breach,
        })
    }

    fn skip(&mut self, line: usize, byte_offset: u64, message: String) {
        self.dropped += 1;
        if self.diagnostics.len() < self.budget.max_diagnostics {
            self.diagnostics.push(LoadDiagnostic { line, byte_offset, message });
        }
    }

    /// Which load-wide budget axis (if any) the *next* record would
    /// overrun.
    fn budget_check(&self) -> Option<BudgetKind> {
        if self.events >= self.budget.max_events {
            return Some(BudgetKind::Events);
        }
        if self.containers_seen >= self.budget.max_containers {
            return Some(BudgetKind::Containers);
        }
        if self.mem_estimate >= self.budget.max_memory_bytes {
            return Some(BudgetKind::MemoryBytes);
        }
        None
    }

    fn apply_record(&mut self, kind: RecordKind, rest: &str) -> Result<(), RecordFault> {
        match kind {
            RecordKind::Span => self.span = Some(parse_span(rest)?),
            RecordKind::Container => {
                let [id, parent, ckind, name] = fields::<4>(rest)?;
                let expect_idx = parse_id(id)?;
                let expect = ContainerId::from_index(expect_idx);
                if self.builder.containers().get(expect).is_some() {
                    return Err(RecordFault::Bad(format!(
                        "duplicate container id {expect_idx}"
                    )));
                }
                // The tree assigns ids densely in declaration order, so
                // the next id is known *before* creating the node.
                // Rejecting a mismatch up front (rather than rolling
                // back after the fact, which the builder cannot do)
                // guarantees lenient recovery never materializes a
                // phantom container under a wrong id.
                let next = self.builder.containers().len();
                if expect_idx != next {
                    return Err(RecordFault::Bad(format!(
                        "container id mismatch: file {expect}, next assignable {next}"
                    )));
                }
                let parent = container_id(self.builder.containers(), parent)?;
                let ckind = ContainerKind::from_label(ckind)
                    .ok_or_else(|| RecordFault::Bad(format!("unknown container kind {ckind:?}")))?;
                let got = self
                    .builder
                    .new_container(parent, name, ckind)
                    .map_err(|e| RecordFault::Bad(e.to_string()))?;
                debug_assert_eq!(got, expect);
                self.containers_seen += 1;
                self.mem_estimate += 64 + name.len();
            }
            RecordKind::Metric => {
                let [id, unit, name] = fields::<3>(rest)?;
                let expect_idx = parse_id(id)?;
                let expect = MetricId::from_index(expect_idx);
                // Predict the id `metric()` would assign — an existing
                // name keeps its id, a new one takes the next dense
                // slot — and reject a mismatch *before* registering, so
                // lenient recovery never materializes a phantom metric
                // under a wrong id.
                let predicted = self
                    .builder
                    .metrics()
                    .by_name(name)
                    .map_or(self.builder.metric_count(), |m| m.id().index());
                if expect_idx != predicted {
                    return Err(RecordFault::Bad(format!(
                        "metric id mismatch: file {expect}, next assignable {predicted}"
                    )));
                }
                let got = self.builder.metric(name, unit);
                debug_assert_eq!(got, expect);
                self.mem_estimate += 48 + name.len() + unit.len();
            }
            RecordKind::Var => {
                let (c, m, t, v) = parse_var(
                    rest,
                    self.builder.containers(),
                    self.builder.metric_count(),
                    self.span,
                )?;
                self.builder
                    .set_variable(t, c, m, v)
                    .map_err(|e| RecordFault::Bad(e.to_string()))?;
                self.events += 1;
                self.mem_estimate += 24;
            }
            RecordKind::State => {
                let [c, s, e, d, name] = fields::<5>(rest)?;
                let container = container_id(self.builder.containers(), c)?;
                let (start, end) =
                    (parse_finite(s, "state start")?, parse_finite(e, "state end")?);
                if end < start {
                    return Err(RecordFault::Bad(format!(
                        "state end {end:?} precedes start {start:?}"
                    )));
                }
                check_in_span(self.span, start, "state")?;
                check_in_span(self.span, end, "state")?;
                self.states.push(StateRecord {
                    container,
                    start,
                    end,
                    depth: parse_usize(d)?,
                    state: name.to_owned(),
                });
                self.events += 1;
                self.mem_estimate += 48 + name.len();
            }
            RecordKind::Link => {
                let [s, e, from, to, size] = fields::<5>(rest)?;
                let (start, end) =
                    (parse_finite(s, "link start")?, parse_finite(e, "link end")?);
                let tree = self.builder.containers();
                let (from, to) = (container_id(tree, from)?, container_id(tree, to)?);
                check_in_span(self.span, start, "link")?;
                check_in_span(self.span, end, "link")?;
                self.builder
                    .link(start, end, from, to, parse_finite(size, "link size")?)
                    .map_err(|e| RecordFault::Bad(e.to_string()))?;
                self.events += 1;
                self.mem_estimate += 40;
            }
        }
        Ok(())
    }
}

/// The kinds of record a trace holds. Every kind but `var` is
/// structural: it declares the span, the container tree or the metric
/// set, or adds a state or link interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordKind {
    Span,
    Container,
    Metric,
    Var,
    State,
    Link,
}

/// Splits a line into its record kind and comma-separated fields, or
/// `None` for a blank or comment line, which a load skips uncounted.
pub(crate) fn record(raw: &str) -> Option<Result<(RecordKind, &str), RecordFault>> {
    let line = raw.trim_end();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let Some((kind, rest)) = line.split_once(',') else {
        return Some(Err(RecordFault::Bad("missing record kind".to_owned())));
    };
    let kind = match kind {
        "span" => RecordKind::Span,
        "container" => RecordKind::Container,
        "metric" => RecordKind::Metric,
        "var" => RecordKind::Var,
        "state" => RecordKind::State,
        "link" => RecordKind::Link,
        other => return Some(Err(RecordFault::Bad(format!("unknown record kind {other:?}")))),
    };
    Some(Ok((kind, rest)))
}

/// Parses the fields of a `span` record: finite bounds, the end not
/// before the start.
pub(crate) fn parse_span(rest: &str) -> Result<(f64, f64), RecordFault> {
    let [s, e] = fields::<2>(rest)?;
    let (s, e) = (parse_finite(s, "span start")?, parse_finite(e, "span end")?);
    if e < s {
        return Err(RecordFault::Bad(format!("span end {e:?} precedes start {s:?}")));
    }
    Ok((s, e))
}

/// Parses a `var` record and checks it, in order, against the declared
/// containers, metric count and span. A non-finite value on an
/// otherwise valid record is [`RecordFault::NonFinite`]. Time order is
/// left to the signal push.
pub(crate) fn parse_var(
    rest: &str,
    tree: &ContainerTree,
    metric_count: usize,
    span: Option<(f64, f64)>,
) -> Result<(ContainerId, MetricId, f64, f64), RecordFault> {
    let [t, c, m, v] = fields::<4>(rest)?;
    let t = parse_finite(t, "time")?;
    let c = container_id(tree, c)?;
    let m = metric_id(metric_count, m)?;
    check_in_span(span, t, "var")?;
    let v = parse_f64(v)?;
    if !v.is_finite() {
        return Err(RecordFault::NonFinite {
            container: c,
            metric: m,
            message: format!("non-finite sample {v:?} quarantined"),
        });
    }
    Ok((c, m, t, v))
}

/// Validates `t` against the declared span, if any. Records made
/// outside the declared observation period are inconsistent (a
/// truncated dump re-concatenated out of order, or forged data).
fn check_in_span(span: Option<(f64, f64)>, t: f64, what: &str) -> Result<(), RecordFault> {
    if let Some((s, e)) = span {
        if t < s || t > e {
            return Err(RecordFault::Bad(format!(
                "{what} timestamp {t:?} outside the declared span [{s:?}, {e:?}]"
            )));
        }
    }
    Ok(())
}

fn container_id(tree: &ContainerTree, s: &str) -> Result<ContainerId, RecordFault> {
    let idx = parse_id(s)?;
    let id = ContainerId::from_index(idx);
    if tree.get(id).is_none() {
        return Err(RecordFault::Bad(format!("unknown container id {idx}")));
    }
    Ok(id)
}

fn metric_id(metric_count: usize, s: &str) -> Result<MetricId, RecordFault> {
    let idx = parse_id(s)?;
    if idx >= metric_count {
        return Err(RecordFault::Bad(format!("unknown metric id {idx}")));
    }
    Ok(MetricId::from_index(idx))
}

fn parse_f64(s: &str) -> Result<f64, RecordFault> {
    s.parse::<f64>()
        .map_err(|e| RecordFault::Bad(format!("bad float {s:?}: {e}")))
}

/// Parses a float that must be finite (timestamps, sizes, spans —
/// everything except metric samples, which quarantine instead).
fn parse_finite(s: &str, what: &str) -> Result<f64, RecordFault> {
    let v = parse_f64(s)?;
    if !v.is_finite() {
        return Err(RecordFault::Bad(format!("non-finite {what} {v:?}")));
    }
    Ok(v)
}

fn parse_usize(s: &str) -> Result<usize, RecordFault> {
    s.parse::<usize>()
        .map_err(|e| RecordFault::Bad(format!("bad index {s:?}: {e}")))
}

/// Parses a container/metric id. Ids are dense `u32` indices; anything
/// larger would silently truncate in `from_index` and alias a valid id,
/// so reject it here.
fn parse_id(s: &str) -> Result<usize, RecordFault> {
    let idx = parse_usize(s)?;
    if idx > u32::MAX as usize {
        return Err(RecordFault::Bad(format!("id {idx} out of range")));
    }
    Ok(idx)
}

fn fields<const N: usize>(rest: &str) -> Result<[&str; N], RecordFault> {
    let mut it = rest.splitn(N, ',');
    let mut out = [""; N];
    for slot in out.iter_mut() {
        *slot = it
            .next()
            .ok_or_else(|| RecordFault::Bad(format!("expected {N} fields in {rest:?}")))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::to_csv;

    const GOOD: &str = "span,0.0,10.0\n\
        container,1,0,cluster,c1\n\
        container,2,1,host,h0\n\
        container,3,1,host,h1\n\
        metric,0,MFlop/s,power\n\
        var,0.0,2,0,100.0\n\
        var,0.0,3,0,50.0\n\
        var,5.0,2,0,25.0\n\
        state,2,1.0,4.0,0,compute\n\
        link,2.0,3.0,2,3,80.0\n";

    #[test]
    fn clean_load_is_clean_in_both_modes() {
        for mode in [RecoveryMode::Strict, RecoveryMode::Lenient] {
            let r = TraceLoader::new().mode(mode).load_str(GOOD).unwrap();
            assert!(r.is_clean(), "{mode:?}: {:?}", r.diagnostics);
            assert_eq!(r.events, 5);
            assert_eq!(r.trace.containers().len(), 4);
            assert_eq!(r.trace.states().len(), 1);
            assert_eq!(r.trace.links().len(), 1);
            assert_eq!(r.trace.end(), 10.0);
            assert_eq!(r.trace.quarantined_total(), 0);
            assert_eq!(r.trace.ingest_dropped(), 0);
        }
    }

    #[test]
    fn strict_errors_carry_line_numbers() {
        let bad = format!("{GOOD}bogus,1,2\n");
        let err = TraceLoader::new().load_str(&bad).unwrap_err();
        assert_eq!(err, TraceError::Parse { line: 11, message: "unknown record kind \"bogus\"".into() });
    }

    #[test]
    fn lenient_skips_and_records_diagnostics() {
        let bad = format!("not a record\n{GOOD}var,6.0,99,0,1.0\n");
        let r = TraceLoader::new().lenient().load_str(&bad).unwrap();
        assert_eq!(r.dropped, 2);
        assert_eq!(r.events, 5, "good records survive around the bad ones");
        assert_eq!(r.diagnostics.len(), 2);
        assert_eq!(r.diagnostics[0].line, 1);
        assert_eq!(r.diagnostics[0].byte_offset, 0);
        assert!(r.diagnostics[1].message.contains("unknown container id 99"));
        assert_eq!(r.trace.ingest_dropped(), 2);
    }

    #[test]
    fn recorder_tallies_load_outcomes() {
        let r = Recorder::enabled();
        let loader = TraceLoader::new().lenient().recorder(r.clone());
        let input = format!("junk line\n{GOOD}var,6.0,2,0,nan\n");
        let report = loader.load_str(&input).unwrap();
        assert_eq!(r.counter("trace.loads").get(), 1);
        assert_eq!(r.counter("trace.lines").get(), report.lines as u64);
        assert_eq!(r.counter("trace.bytes").get(), report.bytes);
        assert_eq!(r.counter("trace.events").get(), report.events as u64);
        assert_eq!(r.counter("trace.dropped").get(), 2);
        assert_eq!(r.counter("trace.quarantined").get(), 1);
        assert_eq!(r.histogram("trace.load.seconds").count(), 1);
        assert_eq!(r.histogram("trace.finish.seconds").count(), 1);

        // A strict failure counts as a load error with an event trail.
        let strict = TraceLoader::new().recorder(r.clone());
        assert!(strict.load_str("nonsense\n").is_err());
        assert_eq!(r.counter("trace.load_errors").get(), 1);
        let events = r.snapshot().events;
        assert_eq!(events.last().unwrap().name, "trace.load_error");

        // A lenient budget breach is counted and logged.
        let tight = ResourceBudget { max_events: 2, ..ResourceBudget::default() };
        let breached = TraceLoader::new().lenient().budget(tight).recorder(r.clone());
        let rep = breached.load_str(GOOD).unwrap();
        assert!(rep.breach.is_some());
        assert_eq!(r.counter("trace.budget_breaches").get(), 1);
    }

    #[test]
    fn duplicate_container_id_is_rejected_with_line() {
        let bad = "container,1,0,host,h\ncontainer,1,0,host,again\n";
        let err = TraceLoader::new().load_str(bad).unwrap_err();
        match err {
            TraceError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("duplicate container id 1"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_span_timestamp_is_rejected_with_line() {
        let bad = "span,0.0,10.0\ncontainer,1,0,host,h\nmetric,0,u,x\nvar,11.0,1,0,1.0\n";
        let err = TraceLoader::new().load_str(bad).unwrap_err();
        match err {
            TraceError::Parse { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("outside the declared span"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Without a span record there is no declared range to violate.
        let free = "container,1,0,host,h\nmetric,0,u,x\nvar,11.0,1,0,1.0\n";
        assert!(TraceLoader::new().load_str(free).is_ok());
    }

    #[test]
    fn nan_samples_quarantine_in_lenient() {
        let text = format!("{GOOD}var,6.0,2,0,NaN\nvar,7.0,3,0,inf\n");
        let r = TraceLoader::new().lenient().load_str(&text).unwrap();
        assert_eq!(r.quarantined, 2);
        assert_eq!(r.dropped, 2);
        let c2 = ContainerId::from_index(2);
        let c3 = ContainerId::from_index(3);
        let m = MetricId::from_index(0);
        assert_eq!(r.trace.quarantined(c2, m), 1);
        assert_eq!(r.trace.quarantined(c3, m), 1);
        assert_eq!(r.trace.quarantined_total(), 2);
        // Strict aborts on the same input.
        let err = TraceLoader::new().load_str(&text).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 11, .. }), "{err:?}");
    }

    #[test]
    fn non_finite_timestamps_are_plain_errors_not_quarantine() {
        let text = "container,1,0,host,h\nmetric,0,u,x\nvar,NaN,1,0,1.0\n";
        let r = TraceLoader::new().lenient().load_str(text).unwrap();
        assert_eq!(r.dropped, 1);
        assert_eq!(r.quarantined, 0);
    }

    #[test]
    fn event_budget_degrades_to_typed_breach() {
        let budget = ResourceBudget { max_events: 2, ..ResourceBudget::unlimited() };
        let r = TraceLoader::new().lenient().budget(budget).load_str(GOOD).unwrap();
        let b = r.breach.expect("breach reported");
        assert_eq!(b.kind, BudgetKind::Events);
        assert_eq!(b.limit, 2);
        assert_eq!(b.line, 8, "the first line NOT ingested");
        assert_eq!(r.events, 2, "partial trace holds what fit");
        // Strict mode surfaces the same breach as a typed error.
        let err = TraceLoader::new().budget(budget).load_str(GOOD).unwrap_err();
        assert_eq!(err, TraceError::BudgetExceeded(b));
    }

    #[test]
    fn container_budget_is_enforced() {
        let budget = ResourceBudget { max_containers: 2, ..ResourceBudget::unlimited() };
        let r = TraceLoader::new().lenient().budget(budget).load_str(GOOD).unwrap();
        assert_eq!(r.breach.as_ref().map(|b| b.kind), Some(BudgetKind::Containers));
        assert_eq!(r.trace.containers().len(), 3, "root + 2 declared");
    }

    #[test]
    fn memory_budget_is_enforced() {
        let budget = ResourceBudget { max_memory_bytes: 100, ..ResourceBudget::unlimited() };
        let r = TraceLoader::new().lenient().budget(budget).load_str(GOOD).unwrap();
        assert_eq!(r.breach.as_ref().map(|b| b.kind), Some(BudgetKind::MemoryBytes));
    }

    #[test]
    fn oversized_line_is_drained_not_buffered() {
        let mut text = String::from("container,1,0,host,h\n");
        text.push_str("# ");
        text.push_str(&"x".repeat(4096));
        text.push('\n');
        text.push_str("metric,0,u,m\nvar,1.0,1,0,3.0\n");
        let budget = ResourceBudget { max_line_bytes: 64, ..ResourceBudget::unlimited() };
        // Lenient: the long line is skipped, records after it survive.
        let r = TraceLoader::new().lenient().budget(budget).load_str(&text).unwrap();
        assert_eq!(r.dropped, 1);
        assert_eq!(r.events, 1);
        assert_eq!(r.bytes, text.len() as u64, "whole stream consumed");
        assert!(r.diagnostics[0].message.contains("line length"));
        // Strict: typed breach.
        let err = TraceLoader::new().budget(budget).load_str(&text).unwrap_err();
        assert!(matches!(err, TraceError::BudgetExceeded(BudgetBreach { kind: BudgetKind::LineBytes, line: 2, .. })), "{err:?}");
    }

    #[test]
    fn diagnostics_are_capped_but_counted() {
        let mut text = String::new();
        for _ in 0..100 {
            text.push_str("garbage\n");
        }
        let budget = ResourceBudget { max_diagnostics: 5, ..ResourceBudget::default() };
        let r = TraceLoader::new().lenient().budget(budget).load_str(&text).unwrap();
        assert_eq!(r.dropped, 100);
        assert_eq!(r.diagnostics.len(), 5);
    }

    #[test]
    fn crlf_and_missing_trailing_newline_are_tolerated() {
        let text = "container,1,0,host,h\r\nmetric,0,u,m\r\nvar,1.0,1,0,3.0";
        let r = TraceLoader::new().load_str(text).unwrap();
        assert!(r.is_clean());
        assert_eq!(r.events, 1);
    }

    #[test]
    fn invalid_utf8_is_lossy_not_fatal() {
        let mut bytes = b"container,1,0,host,h".to_vec();
        bytes.push(0xFF);
        bytes.extend_from_slice(b"x\nmetric,0,u,m\n");
        let r = TraceLoader::new().lenient().load(&bytes[..]).unwrap();
        // The replacement character lands in the free-form name field,
        // which accepts any text: nothing to drop.
        assert!(r.is_clean());
        assert!(r.trace.containers().len() == 2);
    }

    #[test]
    fn loaded_trace_roundtrips_through_to_csv() {
        let r = TraceLoader::new().load_str(GOOD).unwrap();
        let csv = to_csv(&r.trace);
        let r2 = TraceLoader::new().load_str(&csv).unwrap();
        assert_eq!(csv, to_csv(&r2.trace), "re-export is a fixed point");
    }

    #[test]
    fn empty_input_yields_empty_trace() {
        for mode in [RecoveryMode::Strict, RecoveryMode::Lenient] {
            let r = TraceLoader::new().mode(mode).load_str("").unwrap();
            assert!(r.is_clean());
            assert_eq!(r.trace.containers().len(), 1, "just the root");
            assert_eq!(r.lines, 0);
        }
    }

    #[test]
    fn summary_is_deterministic() {
        let text = format!("{GOOD}garbage\nvar,6.0,2,0,NaN\n");
        let a = TraceLoader::new().lenient().load_str(&text).unwrap().summary();
        let b = TraceLoader::new().lenient().load_str(&text).unwrap().summary();
        assert_eq!(a, b);
        assert!(a.contains("dropped=2"));
        assert!(a.contains("quarantined=1"));
    }
}
