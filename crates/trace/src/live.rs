//! Live-append support: incremental classification and application of
//! streamed trace lines.
//!
//! A live session's content is *defined* as the lenient load
//! ([`crate::TraceLoader`]) of the concatenation of every acknowledged
//! `append` text — that definition is what makes crash recovery
//! byte-identical (replay the journal through the same loader) and
//! what the incremental fast path below must reproduce bit for bit.
//!
//! There is one record grammar. [`classify`] runs the loader's own
//! line, kind and `var` checks against the live trace, so it cannot
//! drift from a reload: a [`LiveLine::Sample`] passes every check but
//! time order, which [`Trace::live_push_sample`] enforces exactly as
//! the loader's signal push does (a refused push is a drop); a
//! [`LiveLine::Quarantine`] line quarantines and a [`LiveLine::Drop`]
//! line is skipped. Structural records (`span`/`container`/`metric`/
//! `state`/`link`) are not replayed incrementally — the caller reloads
//! the accumulated text, which by construction lands in the same
//! state, and folds the span with [`declared_span`].
//!
//! Live sessions use an **unlimited** resource budget (overload is the
//! server's admission control's job, not the loader's), so the
//! incremental path never has to model budget exhaustion.

use crate::container::ContainerId;
use crate::error::TraceError;
use crate::loader::{parse_span, parse_var, record, RecordFault, RecordKind};
use crate::metric::MetricId;
use crate::trace::Trace;

/// How a lenient loader would treat one appended line, given the
/// current live trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LiveLine {
    /// Blank or comment: ignored, not counted.
    Skip,
    /// A `var` record that passes the loader's checks — apply with
    /// [`Trace::live_push_sample`], which refuses it (a drop) when its
    /// time precedes the signal's last sample.
    Sample {
        /// Target container.
        container: ContainerId,
        /// Target metric.
        metric: MetricId,
        /// Sample time.
        t: f64,
        /// Sample value (finite).
        v: f64,
    },
    /// A `var` record with a non-finite value on a valid
    /// (container, metric): quarantined + dropped.
    Quarantine {
        /// Target container.
        container: ContainerId,
        /// Target metric.
        metric: MetricId,
    },
    /// A malformed record a lenient load skips (dropped + 1, no other
    /// state change).
    Drop,
    /// A structural record (`span`/`container`/`metric`/`state`/
    /// `link`): the caller must reload the accumulated text.
    Structural,
}

/// Classifies one line with the loader's checks, given the live trace
/// and the span declared so far (see [`declared_span`]).
pub fn classify(trace: &Trace, span: Option<(f64, f64)>, raw: &str) -> LiveLine {
    let rest = match record(raw) {
        None => return LiveLine::Skip,
        Some(Ok((RecordKind::Var, rest))) => rest,
        Some(Ok(_)) => return LiveLine::Structural,
        Some(Err(_)) => return LiveLine::Drop,
    };
    match parse_var(rest, trace.containers(), trace.metrics().len(), span) {
        Ok((container, metric, t, v)) => LiveLine::Sample { container, metric, t, v },
        Err(RecordFault::NonFinite { container, metric, .. }) => {
            LiveLine::Quarantine { container, metric }
        }
        Err(RecordFault::Bad(_)) => LiveLine::Drop,
    }
}

/// The span `raw` declares if it is a valid `span` record, parsed as
/// the loader parses it. Span validity depends on nothing else in the
/// stream, so folding this over the lines of a text — the last valid
/// record wins — gives the span a load of that text ends with.
pub fn declared_span(raw: &str) -> Option<(f64, f64)> {
    match record(raw)? {
        Ok((RecordKind::Span, rest)) => parse_span(rest).ok(),
        _ => None,
    }
}

/// State of the leaf signal *before* a [`Trace::live_push_sample`] —
/// everything `viva-agg`'s incremental insert needs to update the
/// merged series without rescanning.
#[derive(Debug, Clone, Copy)]
pub struct SamplePrior {
    /// Whether the (container, metric) pair already carried a signal.
    /// `false` means the insert adds a new carrier (index structure
    /// changes, not just values).
    pub existed: bool,
    /// Whether the new sample's time equals the signal's previous last
    /// breakpoint (the push overwrote rather than appended).
    pub tied: bool,
    /// The signal's last value before the push (0.0 when `!existed`).
    pub prev_value: f64,
}

impl Trace {
    /// Applies one validated live sample, returning the leaf-signal
    /// prior the aggregation index needs. Maintains `start`/`end`
    /// exactly as a from-scratch lenient reload would (the builder's
    /// earliest/latest fold plus the loader's state-time fold).
    ///
    /// # Errors
    ///
    /// [`TraceError::NonMonotonicTime`] when `t` precedes the signal's
    /// last sample, leaving the trace unchanged — the one check a
    /// [`classify`]d sample can still fail, and a lenient load drops
    /// such a record too; [`TraceError::NotFinite`] on a non-finite
    /// input.
    pub fn live_push_sample(
        &mut self,
        container: ContainerId,
        metric: MetricId,
        t: f64,
        v: f64,
    ) -> Result<SamplePrior, TraceError> {
        let prior = match self.signals.get(container, metric) {
            Some(sig) => SamplePrior {
                existed: true,
                tied: sig.last_time().unwrap_or(t) == t,
                prev_value: sig.values().last().copied().unwrap_or(0.0),
            },
            None => SamplePrior { existed: false, tied: false, prev_value: 0.0 },
        };
        // Capture *before* the push: whether the builder had seen any
        // event at all decides whether `start` is a fold or a seed.
        let had_events = !self.signals.is_empty() || !self.links.is_empty();
        // The signal's own push checks time order, as in a load, and
        // refuses before changing anything.
        self.signals.get_or_insert(container, metric).push(t, v)?;
        self.start = if had_events || !self.states.is_empty() { self.start.min(t) } else { t };
        self.end = self.end.max(t);
        Ok(prior)
    }

    /// Books one quarantined non-finite sample on a live session: the
    /// per-pair quarantine counter and the dropped tally both advance
    /// (quarantines are a subset of drops, as in the loader).
    pub fn live_note_quarantined(&mut self, container: ContainerId, metric: MetricId) {
        *self.quarantined.entry((container, metric)).or_insert(0) += 1;
        self.ingest_dropped += 1;
    }

    /// Books one dropped (malformed) live record.
    pub fn live_note_dropped(&mut self) {
        self.ingest_dropped += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{RecoveryMode, ResourceBudget, TraceLoader};

    const BASE: &str = "span,0.0,10.0\n\
        container,1,0,host,h0\n\
        container,2,0,host,h1\n\
        metric,0,MFlop/s,power\n\
        var,1.0,1,0,100.0\n";

    fn load(text: &str) -> Trace {
        TraceLoader::new()
            .mode(RecoveryMode::Lenient)
            .budget(ResourceBudget::unlimited())
            .load(text.as_bytes())
            .unwrap()
            .trace
    }

    /// The span a load of `text` ends with, folded line by line.
    fn span_of(text: &str) -> Option<(f64, f64)> {
        text.lines().filter_map(declared_span).next_back()
    }

    /// The contract `classify` exists for: every classification must
    /// match what a from-scratch lenient reload of base + line does.
    #[test]
    fn classify_matches_reload() {
        let base = load(BASE);
        let span = span_of(BASE);
        let cases: Vec<(&str, LiveLine)> = vec![
            ("", LiveLine::Skip),
            ("# comment", LiveLine::Skip),
            ("var,2.0,1,0,50.0", LiveLine::Sample {
                container: ContainerId::from_index(1),
                metric: MetricId::from_index(0),
                t: 2.0,
                v: 50.0,
            }),
            ("var,2.0,2,0,75.5", LiveLine::Sample {
                container: ContainerId::from_index(2),
                metric: MetricId::from_index(0),
                t: 2.0,
                v: 75.5,
            }),
            ("var,2.0,1,0,NaN", LiveLine::Quarantine {
                container: ContainerId::from_index(1),
                metric: MetricId::from_index(0),
            }),
            ("var,2.0,1,0,inf", LiveLine::Quarantine {
                container: ContainerId::from_index(1),
                metric: MetricId::from_index(0),
            }),
            // Before the last breakpoint: the push refuses it (below).
            ("var,0.5,1,0,50.0", LiveLine::Sample {
                container: ContainerId::from_index(1),
                metric: MetricId::from_index(0),
                t: 0.5,
                v: 50.0,
            }),
            ("var,11.0,1,0,50.0", LiveLine::Drop), // outside span
            ("var,2.0,9,0,50.0", LiveLine::Drop),  // unknown container
            ("var,2.0,1,7,50.0", LiveLine::Drop),  // unknown metric
            ("var,NaN,1,0,50.0", LiveLine::Drop),  // non-finite time
            ("var,2.0,1,0", LiveLine::Drop),       // missing field
            ("var,2.0,1,0,1.0,extra", LiveLine::Drop), // junk tail folds into v
            ("frobnicate,1,2", LiveLine::Drop),    // unknown kind
            ("no comma here", LiveLine::Drop),
            ("span,0.0,20.0", LiveLine::Structural),
            ("container,3,0,host,h2", LiveLine::Structural),
            ("metric,1,B/s,net", LiveLine::Structural),
            ("state,1,1.0,2.0,0,busy", LiveLine::Structural),
            ("link,1.0,2.0,1,2,8.0", LiveLine::Structural),
        ];
        for (line, want) in cases {
            assert_eq!(classify(&base, span, line), want, "line {line:?}");
        }
        // The out-of-order sample is refused without a state change,
        // and booking it as a drop lands where a reload does.
        let (c, m) = (ContainerId::from_index(1), MetricId::from_index(0));
        let mut live = base.clone();
        let before = live.signal(c, m).cloned();
        let err = live.live_push_sample(c, m, 0.5, 50.0);
        assert!(matches!(err, Err(TraceError::NonMonotonicTime { .. })), "{err:?}");
        assert_eq!(live.signal(c, m).cloned(), before);
        live.live_note_dropped();
        let reloaded = load(&format!("{BASE}var,0.5,1,0,50.0\n"));
        assert_eq!(live.ingest_dropped(), reloaded.ingest_dropped());
        assert_eq!(live.ingest_dropped(), 1);
    }

    #[test]
    fn push_sample_matches_reload_bytes() {
        let mut live = load(BASE);
        let appended = "var,2.0,1,0,50.0\nvar,2.0,2,0,75.5\nvar,2.0,2,0,80.0\n";
        for raw in appended.lines() {
            match classify(&live, span_of(BASE), raw) {
                LiveLine::Sample { container, metric, t, v } => {
                    live.live_push_sample(container, metric, t, v).unwrap();
                }
                other => panic!("unexpected classification {other:?}"),
            }
        }
        let reloaded = load(&format!("{BASE}{appended}"));
        assert_eq!(live.start(), reloaded.start());
        assert_eq!(live.end(), reloaded.end());
        assert_eq!(live.signal_count(), reloaded.signal_count());
        for (c, m, sig) in reloaded.signals() {
            let l = live.signal(c, m).expect("signal present");
            assert_eq!(l.times(), sig.times());
            assert_eq!(l.values(), sig.values());
            assert_eq!(l.cumulative(), sig.cumulative());
        }
    }

    /// First-ever event seeds `start` (the builder's `unwrap_or(0.0)`
    /// never applies once a real event exists).
    #[test]
    fn start_end_maintenance_without_prior_events() {
        let topo = "container,1,0,host,h0\nmetric,0,u,m\n";
        let mut live = load(topo);
        assert_eq!((live.start(), live.end()), (0.0, 0.0));
        live.live_push_sample(ContainerId::from_index(1), MetricId::from_index(0), 3.0, 1.0)
            .unwrap();
        let reloaded = load(&format!("{topo}var,3.0,1,0,1\n"));
        assert_eq!(live.start(), reloaded.start());
        assert_eq!(live.end(), reloaded.end());
    }

    #[test]
    fn quarantine_and_drop_counters_match_reload() {
        let mut live = load(BASE);
        live.live_note_quarantined(ContainerId::from_index(1), MetricId::from_index(0));
        live.live_note_dropped();
        let reloaded = load(&format!("{BASE}var,2.0,1,0,NaN\ngarbage line, eh\n"));
        assert_eq!(live.quarantined_total(), reloaded.quarantined_total());
        assert_eq!(live.ingest_dropped(), reloaded.ingest_dropped());
    }

    #[test]
    fn declared_span_fold_takes_last_valid() {
        let text = "span,0.0,10.0\nspan,bad,10\nspan,5.0,2.0\nspan,1.0,20.0\n# span,9,9\n";
        assert_eq!(span_of(text), Some((1.0, 20.0)));
        assert_eq!(span_of("var,1,1,0,2\n"), None);
    }
}
