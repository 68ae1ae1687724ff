//! # viva-trace — trace substrate for topology-based visualization
//!
//! This crate implements the trace model that the VIVA visualization
//! technique (Schnorr, Legrand, Vincent — ISPASS 2013) consumes. It is
//! heavily inspired by the [Paje] trace format the original tool reads:
//! a tree of *containers* (monitored entities: grids, sites, clusters,
//! hosts, links, processes), a registry of typed *metrics* (computing
//! power in MFlop/s, bandwidth in Mbit/s, ...), and per
//! (container, metric) *signals* — piecewise-constant functions of time
//! built from timestamped variable events.
//!
//! The central analytical operation of the paper, the multi-scale
//! aggregation of Equation 1, reduces to *integrating* those signals
//! over a time-slice; [`Signal::integrate`] implements that exactly
//! (and in `O(log n + k)` for `k` segments inside the slice).
//!
//! [Paje]: https://github.com/schnorr/pajeng
//!
//! ## Example
//!
//! ```
//! use viva_trace::{TraceBuilder, ContainerKind};
//!
//! let mut b = TraceBuilder::new();
//! let root = b.root();
//! let host = b.new_container(root, "hostA", ContainerKind::Host)?;
//! let power = b.metric("power", "MFlop/s");
//! b.set_variable(0.0, host, power, 100.0)?;
//! b.set_variable(5.0, host, power, 50.0)?;
//! let trace = b.finish(10.0);
//! let sig = trace.signal(host, power).unwrap();
//! assert_eq!(sig.integrate(0.0, 10.0), 100.0 * 5.0 + 50.0 * 5.0);
//! # Ok::<(), viva_trace::TraceError>(())
//! ```

pub mod builder;
pub mod columns;
pub mod container;
pub mod error;
pub mod event;
pub mod export;
pub mod journal;
pub mod live;
pub mod loader;
pub mod metric;
pub mod signal;
pub mod state;
pub mod timeline;
pub mod trace;

pub use builder::TraceBuilder;
pub use columns::{ColumnStore, SignalTable};
pub use container::{Container, ContainerId, ContainerKind, ContainerTree};
pub use error::TraceError;
pub use event::Event;
pub use journal::{
    write_atomic, AppendOutcome, JournalConfig, JournalError, JournalRecord, JournalWriter,
    RecoveredJournal,
};
pub use live::{LiveLine, SamplePrior};
pub use loader::{
    BudgetBreach, BudgetKind, LoadDiagnostic, LoadReport, RecoveryMode, ResourceBudget,
    TraceLoader,
};
pub use metric::{Metric, MetricId, MetricRegistry};
pub use signal::Signal;
pub use state::{StateLog, StateRecord};
pub use trace::{LinkRecord, Trace};
