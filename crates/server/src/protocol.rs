//! The wire protocol: newline-delimited JSON commands and responses.
//!
//! One request line carries one [`Command`]; the server answers with
//! exactly one [`Response`] line, and a subscribed connection also
//! receives [`Push`] lines. Encoding is **deterministic** — the same
//! value always serializes to the same bytes (see [`crate::json`]) —
//! which is what makes golden-transcript testing and byte-for-byte
//! replay possible. Decoding accepts member order freely and ignores
//! unknown members, so clients can grow fields without breaking old
//! servers.
//!
//! The command set mirrors the paper's interactive loop one-to-one
//! (§4.2: time-slice selection, collapse/expand, force sliders, node
//! drag/pin) plus the serving concerns around it (trace upload,
//! session management, rendering). Containers and metrics are
//! addressed **by name** — names are stable across loads, ids are not.
//!
//! **Each message is declared once.** The four message families —
//! [`Command`], [`Response`], [`Push`] and [`ErrorKind`] — are one
//! `wire_enum!` table each, and the nested blocks one `wire_struct!`
//! table each. An entry gives the wire tag, for a command its
//! [`CommandClass`], and the fields in wire order with their types and
//! absence rules; the macros generate the type, `encode`, `decode`,
//! `name` and, for commands, `metric_name`, `class` and
//! [`CommandClass::of_name`]. A field without a rule is required,
//! except that an `Option` is left off the wire when `None` and reads
//! as `None` when absent or `null`. The rules:
//!
//! * `null` — an `Option` written as `null` when `None`;
//! * `omit_false` — a `bool` left off the wire when `false`, reading
//!   as `false` when absent;
//! * `absent_false` — a `bool` always written, reading as `false` when
//!   absent;
//! * `map` — `(name, value)` pairs written as one JSON object;
//! * `@name = expr;` before a field — a constant member, written only;
//! * `tag` — the field (itself a family) names the entry: its tag
//!   member is written first, in place of the entry's, and its own
//!   members after the entry's other fields. This is how
//!   [`Response::Error`] carries an [`ErrorKind`].

use std::fmt;
use std::str::FromStr;

use viva::Theme;
use viva_trace::RecoveryMode;

use crate::checkpoint::SessionCheckpoint;
use crate::json::{self, At, FromWire, Json, Members, ObjectWriter, ToWire};
use crate::store::TraceEntry;

/// Writes field `$v` as member `$key` under its rule.
macro_rules! put_field {
    ($o:ident, $key:expr, $v:expr) => {
        $o.field($key, $v)
    };
    ($o:ident, $key:expr, $v:expr, null) => {
        $o.value($key, $v)
    };
    ($o:ident, $key:expr, $v:expr, omit_false) => {
        if *$v {
            $o.value($key, $v)
        }
    };
    ($o:ident, $key:expr, $v:expr, absent_false) => {
        $o.value($key, $v)
    };
    ($o:ident, $key:expr, $v:expr, map) => {
        $o.map($key, $v)
    };
    // Written by `write_tag!` and after the entry's other fields.
    ($o:ident, $key:expr, $v:expr, tag) => {};
}

/// Reads member `$key` of `$m`, a `$ty`, under its rule.
macro_rules! get_field {
    ($m:ident, $key:expr, $ty:ty) => {
        $m.field($key)?
    };
    ($m:ident, $key:expr, $ty:ty, null) => {
        $m.field($key)?
    };
    ($m:ident, $key:expr, $ty:ty, omit_false) => {
        $m.or_false($key)?
    };
    ($m:ident, $key:expr, $ty:ty, absent_false) => {
        $m.or_false($key)?
    };
    ($m:ident, $key:expr, $ty:ty, map) => {
        $m.map($key)?
    };
    ($m:ident, $key:expr, $ty:ty, tag) => {
        <$ty>::read_members($m)?
    };
}

/// Expands to the first block for a field under the `tag` rule, to the
/// second for any other field.
macro_rules! if_tag {
    (tag, { $($then:tt)* } { $($else:tt)* }) => { $($then)* };
    ($($rule:ident)?, { $($then:tt)* } { $($else:tt)* }) => { $($else)* };
}

/// Writes an entry's tag member: the family's `$key: $tag`, or, when a
/// field is under the `tag` rule, that field's family tag.
macro_rules! write_tag {
    ($o:ident, $key:expr, $tag:expr;) => {
        $o.value($key, $tag)
    };
    ($o:ident, $key:expr, $tag:expr; $f:ident : $ty:ty = tag $(, $($rest:tt)*)?) => {
        $o.value(<$ty>::KEY, $f.name())
    };
    ($o:ident, $key:expr, $tag:expr; $f:ident : $ty:ty $(= $rule:ident)? $(, $($rest:tt)*)?) => {
        write_tag!($o, $key, $tag; $($($rest)*)?)
    };
}

/// A field's wire name: its own, or the one given by `#[wire = "…"]`.
macro_rules! wire_key {
    ($f:ident) => {
        stringify!($f)
    };
    ($f:ident, $key:literal) => {
        $key
    };
}

/// Declares a struct whose wire form is one JSON object with a member
/// per field, in declaration order.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $S:ident {
            $(
                $(#[doc = $doc:literal])*
                $(#[wire = $key:literal])?
                pub $f:ident : $ty:ty $(= $rule:ident)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $S {
            $( $(#[doc = $doc])* pub $f: $ty, )*
        }

        impl $crate::json::ToWire for $S {
            fn write(&self, out: &mut String) {
                $crate::json::ObjectWriter::write(out, |o| {
                    $( $crate::protocol::put_field!(
                        o, $crate::protocol::wire_key!($f $(, $key)?), &self.$f $(, $rule)?
                    ); )*
                });
            }
        }

        impl $crate::json::FromWire for $S {
            fn read(
                v: $crate::json::Json,
                at: $crate::json::At<'_>,
            ) -> Result<$S, $crate::protocol::DecodeError> {
                let m = &mut <$crate::json::Members as $crate::json::FromWire>::read(v, at)?;
                Ok($S {
                    $( $f: $crate::protocol::get_field!(
                        m, $crate::protocol::wire_key!($f $(, $key)?), $ty $(, $rule)?
                    ), )*
                })
            }
        }
    };
}

/// Declares one message family: an enum whose variants are told apart
/// by a tag member (`"cmd":"ping"`), with `name`, `encode` and
/// `decode`. See the module docs for the field rules.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $E:ident : tag $key:literal, line $what:literal,
            unknown $unknown:literal => $kind:ident {
            $(
                $(#[$vmeta:meta])*
                $V:ident $tag:literal $(=> $class:ident)? $({
                    $(
                        $(@ $ck:ident = $cv:expr;)?
                        $(#[$fmeta:meta])*
                        $f:ident : $ty:ty $(= $rule:ident)?
                    ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $E {
            $(
                $(#[$vmeta])*
                $V $({ $( $(#[$fmeta])* $f: $ty, )* })?,
            )*
        }

        impl $E {
            const KEY: &'static str = $key;

            /// The wire tag naming this message.
            pub fn name(&self) -> &'static str {
                match self {
                    $( $E::$V { .. } => $tag, )*
                }
            }

            /// Serializes to the canonical one-line JSON form.
            pub fn encode(&self) -> String {
                json::encode(self)
            }

            /// Decodes one line. Unknown members are ignored; a missing
            /// or ill-typed member is a [`DecodeError`].
            pub fn decode(line: &str) -> Result<$E, DecodeError> {
                json::decode(line, $what)
            }

            /// Writes the members: the tag member first when `tagged`,
            /// then each field under its rule.
            fn write_members(&self, o: &mut ObjectWriter<'_>, tagged: bool) {
                match self {
                    $( $E::$V $({ $($f),* })? => {
                        if tagged {
                            write_tag!(o, $E::KEY, $tag; $($($f : $ty $(= $rule)?),*)?);
                        }
                        $($(
                            $( o.value(stringify!($ck), &$cv); )?
                            put_field!(o, stringify!($f), $f $(, $rule)?);
                        )*)?
                        $($( if_tag! { $($rule)?, { $f.write_members(o, false); } {} } )*)?
                    } )*
                }
            }

            /// Reads a message: the variant its tag member names, then
            /// that variant's fields.
            fn read_members(m: &mut Members) -> Result<$E, DecodeError> {
                $($($( if_tag! { $($rule)?, {
                    if m.has(<$ty>::KEY) {
                        return $E::read_fields($tag, m);
                    }
                } {} } )*)?)*
                let tag: String = m.field($E::KEY)?;
                $E::read_fields(&tag, m)
            }

            fn read_fields(tag: &str, m: &mut Members) -> Result<$E, DecodeError> {
                Ok(match tag {
                    $( $tag => $E::$V $({
                        $( $f: get_field!(m, stringify!($f), $ty $(, $rule)?), )*
                    })?, )*
                    other => {
                        return Err(DecodeError {
                            kind: ErrorKind::$kind,
                            message: format!(concat!("unknown ", $unknown, " {:?}"), other),
                        })
                    }
                })
            }
        }

        impl ToWire for $E {
            fn write(&self, out: &mut String) {
                ObjectWriter::write(out, |o| self.write_members(o, true));
            }
        }

        impl FromWire for $E {
            fn read(v: Json, at: At<'_>) -> Result<$E, DecodeError> {
                $E::read_members(&mut Members::read(v, at)?)
            }
        }

        wire_enum!(@classes $E { $( $V $tag $(=> $class)? ),* });
    };
    // Commands: each entry also names its deadline class.
    (@classes Command { $( $V:ident $tag:literal => $class:ident ),* }) => {
        impl Command {
            /// `server.cmd.<name>`: the counter and the phase the server
            /// bills this command to.
            pub fn metric_name(&self) -> &'static str {
                match self {
                    $( Command::$V { .. } => concat!("server.cmd.", $tag), )*
                }
            }

            /// The deadline class this command is billed under.
            pub fn class(&self) -> CommandClass {
                match self {
                    $( Command::$V { .. } => CommandClass::$class, )*
                }
            }
        }

        impl CommandClass {
            /// The class of the command named `name` (the
            /// [`Command::name`] token) — how span records, which carry
            /// only the name, find the metric their duration bills to.
            /// `None` for names that are not commands (phase spans).
            pub fn of_name(name: &str) -> Option<CommandClass> {
                match name {
                    $( $tag => Some(CommandClass::$class), )*
                    _ => None,
                }
            }
        }
    };
    (@classes $E:ident { $( $V:ident $tag:literal ),* }) => {};
}

pub(crate) use get_field;
pub(crate) use put_field;
pub(crate) use wire_key;
pub(crate) use wire_struct;

wire_enum! {
    /// A request from the analyst's client to the server.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Command: tag "cmd", line "request", unknown "command" => UnknownCommand {
        /// Liveness probe; answered with [`Response::Pong`].
        Ping "ping" => Control,
        /// Lists the names of live sessions, sorted.
        Sessions "sessions" => Control,
        /// Closes (drops) a session.
        CloseSession "close_session" => Control {
            /// Session name.
            session: String,
        },
        /// Uploads a trace (the CSV interchange format of `viva-trace`)
        /// and (re)creates `session` over it. Routed through
        /// `TraceLoader` with the server's resource budget, so hostile
        /// uploads degrade or error — they never crash the server. The
        /// loaded trace is also registered in the server's `TraceStore`
        /// (under `trace` when given, else under the session's name), so
        /// later [`Command::Attach`]es share it without re-uploading.
        LoadTrace "load_trace" => Load {
            /// Session to create or replace.
            session: String,
            /// Ingestion recovery mode.
            mode: RecoveryMode,
            /// The trace text (CSV lines).
            text: String,
            /// Store name to register the trace under; defaults to the
            /// session name. Absent on the wire when `None`, so pre-0.7
            /// scripts encode (and replay) byte-identically.
            trace: Option<String>,
        },
        /// Creates (or replaces) `session` over a trace already registered
        /// in the `TraceStore` — no re-upload, no re-parse, no re-index:
        /// the new session shares the stored `Arc<Trace>` and `AggIndex`.
        Attach "attach" => Load {
            /// Session to create or replace.
            session: String,
            /// Store name of the trace to attach to.
            trace: String,
        },
        /// Lists the stored traces (name, content hash, size, live session
        /// count), name-sorted.
        ListTraces "list_traces" => Control,
        /// Drops a trace from the store. Sessions already attached keep
        /// their shared handle; only new attaches are stopped.
        DropTrace "drop_trace" => Control {
            /// Store name of the trace to drop.
            trace: String,
        },
        /// Sets the analysis time-slice (§3.2.1); answered with the
        /// effective (clamped) slice.
        SetTimeSlice "set_time_slice" => Interact {
            /// Session name.
            session: String,
            /// Slice start, seconds.
            start: f64,
            /// Slice end, seconds.
            end: f64,
        },
        /// Collapses a group into one aggregated node (§3.2.2).
        Collapse "collapse" => Interact {
            /// Session name.
            session: String,
            /// Container name.
            container: String,
        },
        /// Expands a collapsed group.
        Expand "expand" => Interact {
            /// Session name.
            session: String,
            /// Container name.
            container: String,
        },
        /// Jumps to one hierarchy level (Fig. 8).
        CollapseAtDepth "collapse_at_depth" => Interact {
            /// Session name.
            session: String,
            /// Tree depth to collapse at (0 = whole system as one node).
            depth: u32,
        },
        /// Expands everything (finest view).
        ExpandAll "expand_all" => Interact {
            /// Session name.
            session: String,
        },
        /// Updates the force sliders (§4.2). Absent fields keep their
        /// value; the result is sanitized through `LayoutConfig::sanitized`
        /// and echoed back.
        SetForces "set_forces" => Interact {
            /// Session name.
            session: String,
            /// New Coulomb repulsion constant.
            repulsion: Option<f64>,
            /// New spring constant.
            spring: Option<f64>,
            /// New velocity damping in `(0, 1]`.
            damping: Option<f64>,
        },
        /// Moves a per-size-group scaling slider (§4.1).
        SetScaling "set_scaling" => Interact {
            /// Session name.
            session: String,
            /// Size-group name (typically a metric name).
            group: String,
            /// Slider multiplier (finite, ≥ 0; 1.0 = automatic).
            factor: f64,
        },
        /// Drags a visible node to a position and pins it there.
        Drag "drag" => Interact {
            /// Session name.
            session: String,
            /// Container name.
            container: String,
            /// Target x.
            x: f64,
            /// Target y.
            y: f64,
        },
        /// Releases a pinned node back to the simulation.
        Release "release" => Interact {
            /// Session name.
            session: String,
            /// Container name.
            container: String,
        },
        /// Runs up to `steps` layout iterations (clamped to the server's
        /// per-command step budget).
        Relax "relax" => Relax {
            /// Session name.
            session: String,
            /// Requested iteration count.
            steps: u64,
        },
        /// Aggregates a metric over a group × the current slice (Eq. 1).
        Aggregate "aggregate" => Interact {
            /// Session name.
            session: String,
            /// Metric name.
            metric: String,
            /// Container name of the group.
            group: String,
        },
        /// Reads the server's observability snapshot — and, when `session`
        /// names a live session, that session's too. Only the
        /// **deterministic** portion of the metrics crosses the wire
        /// (counter values, gauge values, histogram sample counts, event
        /// log); wall-clock timings stay behind `--metrics-out`.
        Stats "stats" => Control {
            /// Session whose metrics to include, if any.
            session: Option<String>,
            /// When `true`, atomically snapshot **and zero** the reported
            /// counters and histograms (gauges and event rings untouched),
            /// so closed-loop benches can measure per-window rates. The
            /// returned blocks are the window that just ended. Absent on
            /// the wire when `false`, so pre-0.10 scripts replay
            /// byte-identically.
            reset: bool = omit_false,
        },
        /// Reads a deterministic subset of the recently finished causal
        /// spans (newest root trees first, capped at `limit` roots). Spans
        /// exist only when the server was started with tracing enabled
        /// (`--self-trace`); otherwise the answer is an empty list. Wall
        /// durations ride along for profiling clients — they are the one
        /// non-deterministic member, and golden scripts simply do not
        /// exercise this command.
        Spans "spans" => Control {
            /// Only roots annotated with this session name, when given.
            session: Option<String>,
            /// Maximum root trees to return; default 16.
            limit: Option<u64>,
        },
        /// Renders the current view to SVG. Viewport and theme come from
        /// the request; frames are served from the per-session cache when
        /// the session revision and presentation match.
        Render "render" => Render {
            /// Session name.
            session: String,
            /// Canvas width, pixels (finite, positive).
            width: f64,
            /// Canvas height, pixels (finite, positive).
            height: f64,
            /// Color theme.
            theme: Theme,
            /// Draw node labels.
            labels: bool = absent_false,
            /// Level-of-detail camera zoom factor. When all three camera
            /// fields are absent the render takes the classic camera-less
            /// path and is byte-identical to pre-LoD servers.
            zoom: Option<f64>,
            /// Camera pan along x, in canvas pixels.
            pan_x: Option<f64>,
            /// Camera pan along y, in canvas pixels.
            pan_y: Option<f64>,
        },
        /// Snapshots a session's view state into a [`SessionCheckpoint`]
        /// and returns it (also writing it to the server's checkpoint
        /// directory when one is configured). Pure read — the session is
        /// not perturbed.
        Checkpoint "checkpoint" => Load {
            /// Session name.
            session: String,
        },
        /// Rebuilds a session from a checkpoint: the one supplied inline
        /// in `state`, or — when `state` is absent — the one previously
        /// written to the server's checkpoint directory under this
        /// session's name. Replaces any live session of the same name.
        Restore "restore" => Load {
            /// Session to (re)create.
            session: String,
            /// Inline checkpoint; `None` reads the checkpoint directory.
            state: Option<Box<SessionCheckpoint>>,
        },
        /// Appends one trace line to a **live streaming session**,
        /// creating the session on the first append. The record is written
        /// to the session's journal (and acknowledged only after the write
        /// succeeds — journal-before-ack), then applied incrementally to
        /// the live trace. Delivery is at-least-once: a `seq` at or below
        /// the session's high-water mark is acknowledged again without
        /// re-applying (idempotent duplicate), a `seq` beyond
        /// `last_seq + 1` is refused with [`ErrorKind::SeqGap`] carrying
        /// the expected value. Billed as `Interact`: the fast path applies
        /// one incremental sample, and a structural record (rare) runs its
        /// reload to completion — the journal already holds the record, so
        /// abandoning it mid-reload would lose the ack.
        Append "append" => Interact {
            /// Live session to create or extend.
            session: String,
            /// Client-assigned sequence number, contiguous from 1.
            seq: u64,
            /// One trace interchange line (no trailing newline needed).
            text: String,
        },
        /// Seals a live session's journal: the stream is complete, no
        /// further appends are accepted (they fail with
        /// [`ErrorKind::SessionSealed`]). The session itself stays live
        /// for analysis.
        Seal "seal" => Interact {
            /// Live session to seal.
            session: String,
        },
        /// Subscribes this connection to a live session's view deltas.
        /// Each applied append pushes a [`Push::Delta`] line (changed
        /// nodes only) to every subscriber. Queues are bounded: a slow
        /// subscriber is shed with a single [`Push::Lagging`] line and
        /// must re-subscribe from the carried `resume_seq`.
        Subscribe "subscribe" => Interact {
            /// Live session to follow.
            session: String,
            /// First sequence number the subscriber has **not** seen;
            /// anything at or after it is covered by an immediate snapshot
            /// delta. Absent means "from now on".
            from_seq: Option<u64>,
        },
        /// Starts a graceful drain: every live session is checkpointed (to
        /// the checkpoint directory when configured), new connections and
        /// state-changing commands are refused with `overloaded`, in-flight
        /// commands finish, and the accept loops exit.
        Shutdown "shutdown" => Control,
    }
}

/// Deadline classes: commands with similar cost share one budget (a
/// render is allowed far more time than flipping the time slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandClass {
    /// Constant-time bookkeeping: ping, session listing, stats, close,
    /// shutdown.
    Control,
    /// Interactive view mutations and queries: slice, collapse, forces,
    /// scaling, drag, aggregate.
    Interact,
    /// Trace ingestion: load, checkpoint, restore (all touch the whole
    /// trace).
    Load,
    /// Layout iteration batches.
    Relax,
    /// Frame rendering.
    Render,
}

impl CommandClass {
    /// Every class, in the fixed order the self-trace exporter
    /// enumerates its metrics.
    pub const ALL: [CommandClass; 5] = [
        CommandClass::Control,
        CommandClass::Interact,
        CommandClass::Load,
        CommandClass::Relax,
        CommandClass::Render,
    ];

    /// Stable lowercase label (metric names in the self-trace export).
    pub fn label(self) -> &'static str {
        match self {
            CommandClass::Control => "control",
            CommandClass::Interact => "interact",
            CommandClass::Load => "load",
            CommandClass::Relax => "relax",
            CommandClass::Render => "render",
        }
    }
}

wire_enum! {
    /// Why a command was rejected. The variant is the wire-visible `err`
    /// kind; the accompanying message is human-readable detail.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ErrorKind: tag "err", line "error", unknown "error kind" => Protocol {
        /// The request line was not a valid protocol message (bad JSON,
        /// missing/ill-typed field, oversized line).
        Protocol "protocol",
        /// Valid JSON, but an unknown `cmd`.
        UnknownCommand "unknown_command",
        /// The named session does not exist (never created, closed, or
        /// evicted).
        NoSession "no_session",
        /// The named container is not part of the session's trace.
        UnknownContainer "unknown_container",
        /// The container exists but is hidden inside a collapsed group.
        HiddenContainer "hidden_container",
        /// The named metric is not recorded in the trace.
        UnknownMetric "unknown_metric",
        /// NaN/infinite or inverted time-slice bounds.
        InvalidTimeSlice "invalid_time_slice",
        /// A drag position with a NaN/infinite coordinate.
        NonFinitePosition "non_finite_position",
        /// A render viewport with non-finite or non-positive dimensions.
        BadViewport "bad_viewport",
        /// An unknown theme name.
        BadTheme "bad_theme",
        /// An argument outside its legal range (e.g. a negative or
        /// non-finite scaling factor).
        BadArgument "bad_argument",
        /// A strict-mode trace upload failed to parse.
        ParseTrace "parse_trace",
        /// A strict-mode trace upload exhausted the server's resource
        /// budget.
        BudgetExceeded "budget_exceeded",
        /// The server shed this command instead of queueing it: admission
        /// control (too many in-flight commands or too many waiters on the
        /// session) or a drain in progress. The work was **not** started;
        /// retry after the hinted delay.
        Overloaded "overloaded" {
            /// Client back-off hint, milliseconds.
            retry_after_ms: u64,
        },
        /// The command exceeded its deadline budget and was abandoned; the
        /// session is at its last consistent revision.
        DeadlineExceeded "deadline_exceeded",
        /// A `restore` was given a checkpoint the server cannot honor
        /// (unsupported version, rejected trace, state that does not fit
        /// the trace, or no stored checkpoint for the session).
        BadCheckpoint "bad_checkpoint",
        /// An `attach`/`drop_trace` named a trace the store does not hold.
        NoTrace "no_trace",
        /// An `append` skipped ahead of the session's high-water mark. The
        /// journal never holds a gap; resend from `expected`.
        SeqGap "seq_gap" {
            /// The sequence number the session expects next.
            expected: u64,
        },
        /// An `append`/`seal`/`subscribe` named a session that exists but
        /// is not a live streaming session (it was created by
        /// `load_trace`/`attach`/`restore` without a journal).
        NotLive "not_live",
        /// An `append` on a sealed live session.
        SessionSealed "sealed",
        /// The journal write behind an `append` (or `seal`) failed at the
        /// filesystem. The event was **not** acknowledged and was not
        /// applied — the ack is a durability promise, so an event the
        /// journal could not hold must be resent once the disk recovers.
        JournalIo "journal_io",
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

wire_struct! {
    /// One discrete event from an observability ring buffer, on the wire.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StatsEvent {
        /// Logical-clock stamp (deterministic).
        pub seq: u64,
        /// Event name, e.g. `layout.freeze`.
        pub name: String,
        /// Machine-readable detail, e.g. the freeze reason token.
        pub detail: String,
    }
}

wire_struct! {
    /// The deterministic portion of one recorder scope's metrics: counter
    /// values, gauge values, histogram **sample counts**, and the event
    /// log. Histogram sums and bucket occupancy are wall-clock-dependent,
    /// so they never cross the wire — that is what keeps the `stats`
    /// command inside the golden-transcript byte-determinism contract.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct StatsBlock {
        /// Logical clock at snapshot time (advances per event).
        pub clock: u64,
        /// Name-sorted counter values.
        pub counters: Vec<(String, u64)> = map,
        /// Name-sorted gauge values. Non-finite readings are reported as
        /// `0` (JSON carries no NaN/∞); the watchdog freezes layouts
        /// before non-finite state normally reaches a gauge.
        pub gauges: Vec<(String, f64)> = map,
        /// Name-sorted histogram sample counts.
        pub histograms: Vec<(String, u64)> = map,
        /// Ring-buffer contents, oldest first.
        pub events: Vec<StatsEvent>,
        /// Events evicted from the ring buffer.
        pub events_dropped: u64,
    }
}

impl StatsBlock {
    /// Projects a recorder snapshot onto its wire-safe subset.
    pub fn from_snapshot(snap: &viva_obs::Snapshot) -> StatsBlock {
        StatsBlock {
            clock: snap.clock,
            counters: snap.counters.clone(),
            gauges: snap
                .gauges
                .iter()
                .map(|(n, v)| (n.clone(), if v.is_finite() { *v } else { 0.0 }))
                .collect(),
            histograms: snap.histograms.iter().map(|h| (h.name.clone(), h.count)).collect(),
            events: snap
                .events
                .iter()
                .map(|e| StatsEvent {
                    seq: e.seq,
                    name: e.name.clone(),
                    detail: e.detail.clone(),
                })
                .collect(),
            events_dropped: snap.events_dropped,
        }
    }
}

wire_struct! {
    /// One finished causal span on the wire (flat tree encoding: children
    /// point at their parent's `id`; roots carry `parent: 0`).
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct SpanNode {
        /// Tree identity — every span of one command shares it.
        pub trace: u64,
        /// This span's id; ids are allocated at span start, so a parent's
        /// id is always smaller than its children's.
        pub id: u64,
        /// Parent span id; `0` marks a root.
        pub parent: u64,
        /// Phase name (command name on roots, e.g. `render`; phase name on
        /// children, e.g. `session.render`).
        pub name: String,
        /// Session annotation on command roots, empty otherwise.
        pub detail: String,
        /// Shard worker the span ran on.
        pub shard: u64,
        /// Logical start tick (deterministic under a fixed sampling seed).
        pub start_tick: u64,
        /// Logical end tick.
        pub end_tick: u64,
        /// Wall-clock duration in nanoseconds — profiling data, the one
        /// non-deterministic member.
        pub duration_ns: u64,
    }
}

wire_struct! {
    /// One session's metrics plus the session-level state the analyst
    /// cares about while reading them (revision, watchdog freeze).
    #[derive(Debug, Clone, PartialEq)]
    pub struct SessionStats {
        /// The session's name.
        pub name: String,
        /// Current view revision.
        pub revision: u64,
        /// Watchdog freeze reason token, if the layout is frozen.
        pub frozen: Option<String> = null,
        /// The session recorder's deterministic metrics.
        pub stats: StatsBlock,
    }
}

wire_enum! {
    /// The server's answer to one [`Command`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response: tag "ok", line "response", unknown "response kind" => Protocol {
        /// Answer to [`Command::Ping`].
        Pong "pong",
        /// Answer to [`Command::Sessions`]: live session names, sorted.
        SessionList "sessions" {
            /// Sorted session names.
            names: Vec<String>,
        },
        /// A session was closed.
        Closed "closed" {
            /// The closed session's name.
            session: String,
        },
        /// A trace was loaded and a session created over it. Quarantine
        /// and drop counts surface ingestion degradation; `breach` names
        /// the budget axis that stopped a lenient load early.
        Loaded "loaded" {
            /// The session name.
            session: String,
            /// Containers in the trace.
            containers: u64,
            /// Event records ingested.
            events: u64,
            /// Records dropped by lenient recovery.
            dropped: u64,
            /// Non-finite samples quarantined.
            quarantined: u64,
            /// Trace span start, seconds.
            start: f64,
            /// Trace span end, seconds.
            end: f64,
            /// Budget breach summary, if a budget axis stopped the load.
            breach: Option<String> = null,
        },
        /// A session was created over a stored trace, after
        /// [`Command::Attach`]. No degradation fields: the stored trace
        /// already survived its load-time budget.
        Attached "attached" {
            /// The session name.
            session: String,
            /// The store name attached to.
            trace: String,
            /// Containers in the trace.
            containers: u64,
            /// Event records in the trace.
            events: u64,
            /// Trace span start, seconds.
            start: f64,
            /// Trace span end, seconds.
            end: f64,
        },
        /// The stored traces, after [`Command::ListTraces`]; name-sorted.
        TraceList "traces" {
            /// One row per stored trace.
            traces: Vec<TraceEntry>,
        },
        /// A trace was dropped from the store.
        TraceDropped "trace_dropped" {
            /// The dropped trace's store name.
            trace: String,
        },
        /// The effective (clamped) time-slice after
        /// [`Command::SetTimeSlice`].
        Slice "slice" {
            /// Effective start.
            start: f64,
            /// Effective end.
            end: f64,
        },
        /// Generic acknowledgement carrying the session's new view
        /// revision (collapse/expand/drag/release/scaling).
        Done "done" {
            /// View revision after the command.
            revision: u64,
        },
        /// The sanitized force parameters after [`Command::SetForces`].
        Forces "forces" {
            /// Effective repulsion.
            repulsion: f64,
            /// Effective spring constant.
            spring: f64,
            /// Effective damping.
            damping: f64,
        },
        /// Layout iterations ran. `frozen` carries the watchdog's
        /// `FreezeReason` when the layout froze instead of diverging.
        Relaxed "relaxed" {
            /// Iterations actually executed.
            steps: u64,
            /// Watchdog freeze reason, if frozen.
            frozen: Option<String> = null,
        },
        /// Numeric aggregate of a metric over a group (Eq. 1 + §6).
        Aggregated "aggregate" {
            /// Members carrying the metric.
            members: u64,
            /// Space × time integral.
            integral: f64,
            /// Mean of member time-averages.
            mean: f64,
            /// Minimum member time-average.
            min: f64,
            /// Maximum member time-average.
            max: f64,
            /// Median member time-average.
            median: f64,
            /// Quarantined samples under the group.
            quarantined: u64,
            /// Whether no member carries the metric.
            empty: bool,
        },
        /// The observability snapshot after [`Command::Stats`]. Boxed:
        /// the blocks are by far the largest payload in the enum.
        Stats "stats" {
            /// Live sessions in the registry.
            sessions: u64,
            // The exact histogram bucket upper bounds — a protocol
            // constant (not state), so clients can turn the reported
            // sample counts into real quantiles without hard-coding the
            // log-linear scheme. Deterministic: every bound is a power of
            // two times a 2-bit fraction.
            @bucket_bounds = viva_obs::bucket_bounds();
            /// Server-scope metrics (per-command counters and registry
            /// occupancy).
            server: Box<StatsBlock>,
            /// The requested session's metrics, when one was named.
            session: Option<Box<SessionStats>> = null,
        },
        /// Recent causal span trees, after [`Command::Spans`]: flat,
        /// ordered by `(trace, id)` — rebuild trees by following `parent`.
        Spans "spans" {
            /// Spans evicted from the tracer's bounded rings (history the
            /// answer cannot include).
            dropped: u64,
            /// The selected spans.
            spans: Vec<SpanNode>,
        },
        /// A rendered frame.
        Frame "frame" {
            /// Session view revision the frame was rendered at.
            revision: u64,
            /// Whether the frame came from the cache.
            cached: bool,
            /// The SVG document.
            svg: String,
        },
        /// A session's checkpoint, after [`Command::Checkpoint`]. Boxed:
        /// the checkpoint embeds the whole trace.
        Checkpointed "checkpoint" {
            /// The checkpointed session's name.
            session: String,
            /// The snapshot.
            state: Box<SessionCheckpoint>,
        },
        /// A session was rebuilt from a checkpoint.
        Restored "restored" {
            /// The restored session's name.
            session: String,
            /// The session's view revision (as captured).
            revision: u64,
        },
        /// One append was journaled and applied (or recognized as an
        /// idempotent duplicate).
        Appended "appended" {
            /// The live session's name.
            session: String,
            /// The acknowledged sequence number.
            seq: u64,
            /// View revision after the append (unchanged for duplicates
            /// and for records the lenient loader skips).
            revision: u64,
            /// Whether this `seq` was already applied (at-least-once
            /// retransmit); the record was **not** re-applied.
            duplicate: bool,
        },
        /// A live session's journal was sealed.
        Sealed "sealed" {
            /// The sealed session's name.
            session: String,
            /// High-water sequence number at seal time.
            last_seq: u64,
        },
        /// This connection now follows a live session.
        Subscribed "subscribed" {
            /// The followed session's name.
            session: String,
            /// High-water sequence number at subscribe time — deltas for
            /// later appends arrive as [`Push::Delta`] lines.
            last_seq: u64,
        },
        /// A graceful drain started (or was already in progress).
        ShutdownStarted "shutdown" {
            /// Sessions live at drain time.
            sessions: u64,
            /// Sessions checkpointed to the checkpoint directory.
            checkpointed: u64,
        },
        /// The command failed; the session (if any) is unchanged. Its
        /// tag member is `err`, carrying the kind.
        Error "err" {
            /// Machine-readable failure kind.
            kind: ErrorKind = tag,
            /// Human-readable detail.
            message: String,
        },
    }
}

/// A line that failed to decode into a [`Command`] or [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    /// The wire error kind a server answers the line with:
    /// `unknown_command` for an unknown `cmd`, `bad_theme` for an
    /// unknown theme, `protocol` for everything else.
    pub kind: ErrorKind,
    /// What was wrong.
    pub message: String,
}

impl DecodeError {
    /// A [`ErrorKind::Protocol`] error.
    pub(crate) fn new(message: String) -> DecodeError {
        DecodeError { kind: ErrorKind::Protocol, message }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DecodeError {}

impl ToWire for Theme {
    fn write(&self, out: &mut String) {
        self.to_string().write(out);
    }
}

impl FromWire for Theme {
    fn read(v: Json, at: At<'_>) -> Result<Theme, DecodeError> {
        Theme::from_str(&String::read(v, at)?).map_err(|e| DecodeError {
            kind: ErrorKind::BadTheme,
            message: format!("bad theme: {e}"),
        })
    }
}

impl ToWire for RecoveryMode {
    fn write(&self, out: &mut String) {
        match self {
            RecoveryMode::Strict => "strict",
            RecoveryMode::Lenient => "lenient",
        }
        .write(out);
    }
}

impl FromWire for RecoveryMode {
    fn read(v: Json, at: At<'_>) -> Result<RecoveryMode, DecodeError> {
        match String::read(v, at)?.as_str() {
            "strict" => Ok(RecoveryMode::Strict),
            "lenient" => Ok(RecoveryMode::Lenient),
            other => Err(DecodeError::new(format!(
                "unknown mode {other:?} (expected \"strict\" or \"lenient\")"
            ))),
        }
    }
}

wire_struct! {
    /// One node's worth of view delta, as pushed to subscribers. A compact
    /// projection of the session's `GraphView` node: identity plus the
    /// values an observer dashboard needs, not geometry.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DeltaNode {
        /// Container id (stable within the live trace).
        #[wire = "c"]
        pub container: u64,
        /// Container name.
        pub label: String,
        /// Fill (color) value — the time-averaged fill metric.
        pub fill: f64,
        /// Size value — the aggregated size metric.
        pub size: f64,
        /// Leaf members aggregated under this node (1 for a leaf).
        pub members: u64,
    }
}

wire_enum! {
    /// A server-initiated line pushed to a subscribed connection, distinct
    /// from command responses by its leading `push` member (see
    /// [`Push::is_push`]). Pushes interleave *between* request/response
    /// pairs, never inside one.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Push: tag "push", line "push", unknown "push kind" => Protocol {
        /// The view changed after an applied append: the nodes whose view
        /// row changed (or appeared), and the container ids of nodes that
        /// vanished. A subscribe with a `from_seq` in the past receives
        /// one snapshot delta carrying every visible node.
        Delta "delta" {
            /// The live session.
            session: String,
            /// The append that caused this delta (the session high-water
            /// mark for a subscribe-time snapshot).
            seq: u64,
            /// Session view revision after the change.
            revision: u64,
            /// Changed or new nodes, view order.
            changed: Vec<DeltaNode>,
            /// Container ids no longer visible, ascending.
            removed: Vec<u64>,
        },
        /// The subscriber fell behind and its queue was shed. No further
        /// pushes will arrive; re-subscribe with `from_seq = resume_seq`
        /// to resynchronize via a snapshot delta.
        Lagging "lagging" {
            /// The live session.
            session: String,
            /// First sequence number not covered by deltas already
            /// delivered to this subscriber.
            resume_seq: u64,
        },
    }
}

impl Push {
    /// Cheap syntactic test: does this line look like a push (as
    /// opposed to a response)? Exact for lines the server produced.
    pub fn is_push(line: &str) -> bool {
        line.starts_with("{\"push\":")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{NodePlacement, CHECKPOINT_VERSION};

    fn tiny_checkpoint() -> SessionCheckpoint {
        SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            session: "s".into(),
            revision: 3,
            slice_start: 0.5,
            slice_end: 9.25,
            collapsed: vec![1, 4],
            forces: (100.0, 2.0, 0.6),
            scaling: vec![("power".into(), 2.0)],
            placements: vec![NodePlacement { container: 2, x: -1.5, y: 3.25, pinned: true }],
            quarantined: vec![(2, 0, 7)],
            ingest_dropped: 1,
            journal: Some(("s".into(), 12)),
            trace_hash: crate::store::hash_token(crate::store::content_hash(b"span,0,10\n")),
            trace_csv: "span,0,10\n".into(),
        }
    }

    #[test]
    fn command_encoding_is_stable() {
        let cmd = Command::Render {
            session: "a".into(),
            width: 800.0,
            height: 600.0,
            theme: Theme::Dark,
            labels: false,
            zoom: None,
            pan_x: None,
            pan_y: None,
        };
        assert_eq!(
            cmd.encode(),
            r#"{"cmd":"render","session":"a","width":800,"height":600,"theme":"dark","labels":false}"#
        );
        assert_eq!(Command::decode(&cmd.encode()).unwrap(), cmd);

        let lod = Command::Render {
            session: "a".into(),
            width: 800.0,
            height: 600.0,
            theme: Theme::Dark,
            labels: false,
            zoom: Some(4.0),
            pan_x: Some(-12.5),
            pan_y: None,
        };
        assert_eq!(
            lod.encode(),
            r#"{"cmd":"render","session":"a","width":800,"height":600,"theme":"dark","labels":false,"zoom":4,"pan_x":-12.5}"#
        );
        assert_eq!(Command::decode(&lod.encode()).unwrap(), lod);
    }

    #[test]
    fn commands_round_trip() {
        let cmds = vec![
            Command::Ping,
            Command::Sessions,
            Command::CloseSession { session: "s".into() },
            Command::LoadTrace {
                session: "s".into(),
                mode: RecoveryMode::Lenient,
                text: "span,0.0,10.0\n".into(),
                trace: None,
            },
            Command::LoadTrace {
                session: "s".into(),
                mode: RecoveryMode::Strict,
                text: "span,0.0,10.0\n".into(),
                trace: Some("shared".into()),
            },
            Command::Attach { session: "s2".into(), trace: "shared".into() },
            Command::ListTraces,
            Command::DropTrace { trace: "shared".into() },
            Command::SetTimeSlice { session: "s".into(), start: 0.25, end: 7.5 },
            Command::Collapse { session: "s".into(), container: "c1".into() },
            Command::Expand { session: "s".into(), container: "c1".into() },
            Command::CollapseAtDepth { session: "s".into(), depth: 2 },
            Command::ExpandAll { session: "s".into() },
            Command::SetForces {
                session: "s".into(),
                repulsion: Some(250.0),
                spring: None,
                damping: Some(0.5),
            },
            Command::SetScaling { session: "s".into(), group: "bandwidth".into(), factor: 2.0 },
            Command::Drag { session: "s".into(), container: "h1".into(), x: -3.5, y: 10.0 },
            Command::Release { session: "s".into(), container: "h1".into() },
            Command::Relax { session: "s".into(), steps: 500 },
            Command::Aggregate {
                session: "s".into(),
                metric: "power_used".into(),
                group: "c1".into(),
            },
            Command::Stats { session: None, reset: false },
            Command::Stats { session: Some("s".into()), reset: false },
            Command::Checkpoint { session: "s".into() },
            Command::Restore { session: "s".into(), state: None },
            Command::Restore { session: "s".into(), state: Some(Box::new(tiny_checkpoint())) },
            Command::Append { session: "live".into(), seq: 42, text: "var,1.0,1,0,3.5".into() },
            Command::Seal { session: "live".into() },
            Command::Subscribe { session: "live".into(), from_seq: None },
            Command::Subscribe { session: "live".into(), from_seq: Some(7) },
            Command::Shutdown,
        ];
        for cmd in cmds {
            let line = cmd.encode();
            assert_eq!(Command::decode(&line).unwrap(), cmd, "{line}");
            assert_eq!(Command::decode(&line).unwrap().encode(), line, "stable re-encode");
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Pong,
            Response::SessionList { names: vec!["a".into(), "b".into()] },
            Response::Closed { session: "a".into() },
            Response::Loaded {
                session: "a".into(),
                containers: 12,
                events: 300,
                dropped: 2,
                quarantined: 1,
                start: 0.0,
                end: 10.0,
                breach: Some("event count budget (10) exhausted at line 7 (byte 130)".into()),
            },
            Response::Attached {
                session: "s2".into(),
                trace: "shared".into(),
                containers: 12,
                events: 300,
                start: 0.0,
                end: 10.0,
            },
            Response::TraceList {
                traces: vec![TraceEntry {
                    name: "shared".into(),
                    hash: "00c0ffee00c0ffee".into(),
                    containers: 12,
                    events: 300,
                    sessions: 2,
                }],
            },
            Response::TraceList { traces: vec![] },
            Response::TraceDropped { trace: "shared".into() },
            Response::Slice { start: 0.0, end: 2.5 },
            Response::Done { revision: 42 },
            Response::Forces { repulsion: 100.0, spring: 2.0, damping: 0.6 },
            Response::Relaxed { steps: 137, frozen: None },
            Response::Relaxed { steps: 0, frozen: Some("non-finite force".into()) },
            Response::Aggregated {
                members: 4,
                integral: 2400.0,
                mean: 60.0,
                min: 60.0,
                max: 60.0,
                median: 60.0,
                quarantined: 0,
                empty: false,
            },
            Response::Frame { revision: 7, cached: true, svg: "<svg>…</svg>\n".into() },
            Response::Stats {
                sessions: 2,
                server: Box::new(StatsBlock {
                    clock: 0,
                    counters: vec![("server.cmd.ping".into(), 3)],
                    gauges: vec![("server.sessions".into(), 2.0)],
                    histograms: vec![("server.cmd.ping.seconds".into(), 3)],
                    events: vec![],
                    events_dropped: 0,
                }),
                session: None,
            },
            Response::Stats {
                sessions: 1,
                server: Box::new(StatsBlock::default()),
                session: Some(Box::new(SessionStats {
                    name: "a".into(),
                    revision: 9,
                    frozen: Some("non_finite_force".into()),
                    stats: StatsBlock {
                        clock: 2,
                        counters: vec![("layout.steps".into(), 40)],
                        gauges: vec![("layout.kinetic_energy".into(), 0.125)],
                        histograms: vec![("layout.step.seconds".into(), 40)],
                        events: vec![
                            StatsEvent {
                                seq: 0,
                                name: "layout.freeze".into(),
                                detail: "non_finite_force".into(),
                            },
                            StatsEvent {
                                seq: 1,
                                name: "layout.thaw".into(),
                                detail: "non_finite_force".into(),
                            },
                        ],
                        events_dropped: 0,
                    },
                })),
            },
            Response::Checkpointed { session: "a".into(), state: Box::new(tiny_checkpoint()) },
            Response::Restored { session: "a".into(), revision: 3 },
            Response::Appended { session: "live".into(), seq: 42, revision: 17, duplicate: false },
            Response::Appended { session: "live".into(), seq: 41, revision: 17, duplicate: true },
            Response::Sealed { session: "live".into(), last_seq: 42 },
            Response::Subscribed { session: "live".into(), last_seq: 42 },
            Response::ShutdownStarted { sessions: 2, checkpointed: 2 },
            Response::Error { kind: ErrorKind::NoSession, message: "session \"x\"".into() },
            Response::Error {
                kind: ErrorKind::Overloaded { retry_after_ms: 50 },
                message: "64 commands in flight".into(),
            },
            Response::Error { kind: ErrorKind::DeadlineExceeded, message: "render".into() },
            Response::Error { kind: ErrorKind::BadCheckpoint, message: "version 9".into() },
            Response::Error { kind: ErrorKind::NoTrace, message: "trace \"shared\"".into() },
            Response::Error {
                kind: ErrorKind::SeqGap { expected: 8 },
                message: "expected seq 8, got 12".into(),
            },
            Response::Error { kind: ErrorKind::NotLive, message: "session \"s\"".into() },
            Response::Error { kind: ErrorKind::SessionSealed, message: "session \"s\"".into() },
        ];
        for r in responses {
            let line = r.encode();
            assert_eq!(Response::decode(&line).unwrap(), r, "{line}");
            assert_eq!(Response::decode(&line).unwrap().encode(), line, "stable re-encode");
        }
    }

    #[test]
    fn stats_command_encoding_is_stable() {
        assert_eq!(Command::Stats { session: None, reset: false }.encode(), r#"{"cmd":"stats"}"#);
        assert_eq!(
            Command::Stats { session: Some("a".into()), reset: false }.encode(),
            r#"{"cmd":"stats","session":"a"}"#
        );
    }

    #[test]
    fn stats_block_projection_keeps_only_deterministic_data() {
        let rec = viva_obs::Recorder::enabled();
        rec.counter("c").add(7);
        rec.gauge("bad").set(f64::NAN);
        rec.histogram("h.seconds").record(0.25);
        rec.event("e", "d");
        let block = StatsBlock::from_snapshot(&rec.snapshot());
        assert_eq!(block.counters, vec![("c".to_owned(), 7)]);
        assert_eq!(block.gauges, vec![("bad".to_owned(), 0.0)], "NaN gauge sanitized");
        assert_eq!(
            block.histograms,
            vec![("h.seconds".to_owned(), 1)],
            "count only — no sum, no buckets"
        );
        assert_eq!(
            block.events,
            vec![StatsEvent { seq: 0, name: "e".into(), detail: "d".into() }]
        );
    }

    #[test]
    fn decode_rejects_malformed_requests() {
        for bad in [
            "",
            "not json",
            "[]",
            "42",
            r#"{"cmd":"no_such_command"}"#,
            r#"{"cmd":"collapse"}"#,
            r#"{"cmd":"collapse","session":"s"}"#,
            r#"{"cmd":"render","session":"s","width":800,"height":600,"theme":"sepia"}"#,
            r#"{"cmd":"relax","session":"s","steps":-1}"#,
            r#"{"cmd":"relax","session":"s","steps":2.5}"#,
            r#"{"cmd":"load_trace","session":"s","mode":"yolo","text":""}"#,
            r#"{"cmd":"set_time_slice","session":"s","start":"a","end":1}"#,
        ] {
            assert!(Command::decode(bad).is_err(), "{bad:?} should fail to decode");
        }
    }

    #[test]
    fn pushes_round_trip() {
        let pushes = vec![
            Push::Delta {
                session: "live".into(),
                seq: 42,
                revision: 17,
                changed: vec![
                    DeltaNode {
                        container: 3,
                        label: "h0".into(),
                        fill: 0.5,
                        size: 120.0,
                        members: 1,
                    },
                    DeltaNode {
                        container: 1,
                        label: "c1".into(),
                        fill: 0.25,
                        size: 240.0,
                        members: 2,
                    },
                ],
                removed: vec![4, 9],
            },
            Push::Delta {
                session: "live".into(),
                seq: 1,
                revision: 1,
                changed: vec![],
                removed: vec![],
            },
            Push::Lagging { session: "live".into(), resume_seq: 40 },
        ];
        for p in pushes {
            let line = p.encode();
            assert!(Push::is_push(&line), "{line}");
            assert_eq!(Push::decode(&line).unwrap(), p, "{line}");
            assert_eq!(Push::decode(&line).unwrap().encode(), line, "stable re-encode");
        }
        // Responses never look like pushes.
        assert!(!Push::is_push(&Response::Pong.encode()));
        assert!(!Push::is_push(
            &Response::Appended {
                session: "s".into(),
                seq: 1,
                revision: 1,
                duplicate: false
            }
            .encode()
        ));
    }

    #[test]
    fn unknown_members_are_ignored() {
        let cmd =
            Command::decode(r#"{"cmd":"ping","future_field":123,"another":{"x":[1,2]}}"#).unwrap();
        assert_eq!(cmd, Command::Ping);
    }
}
