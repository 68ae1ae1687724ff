//! Wire-protocol guarantees of `viva-server`:
//!
//! 1. **Codec identity** — for arbitrary protocol values,
//!    `decode(encode(v)) == v`, for both commands and responses. The
//!    encoding is also *stable*: encoding the decoded value reproduces
//!    the original bytes (the encoder is canonical).
//! 2. **Golden-transcript determinism** — replaying the checked-in
//!    session script through a fresh server twice yields byte-identical
//!    transcripts, and those bytes match the checked-in golden file.
//!    This is the property `ci.sh server-smoke` holds end to end over
//!    the real binaries.
//! 3. **Pinned decode errors** — each way a request line can fail to
//!    decode answers one exact error line (kind and message), because
//!    clients see those texts.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use viva::Theme;
use viva_server::protocol::{
    Command, DeltaNode, ErrorKind, Push, Response, SessionStats, SpanNode, StatsBlock, StatsEvent,
};
use viva_server::{NodePlacement, Server, ServerLimits, SessionCheckpoint, TraceEntry};
use viva_trace::RecoveryMode;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Names exercising JSON escaping: quotes, backslashes, control
/// characters, non-ASCII, and astral-plane text.
const NAMES: &[&str] = &[
    "a",
    "grenoble/adonis-1",
    "with \"quotes\"",
    "back\\slash",
    "tabs\tand\nnewlines",
    "nul\u{0}byte",
    "héhé-ü",
    "城市",
    "🜁 air",
    "",
];

fn name() -> impl Strategy<Value = String> {
    (0usize..NAMES.len()).prop_map(|i| NAMES[i].to_owned())
}

/// Finite `f64`s including the awkward ones (negative zero, subnormal,
/// huge, tiny, non-representable-in-decimal fractions).
fn num() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e9f64..1.0e9,
        (0usize..8).prop_map(|i| {
            [0.0, -0.0, 0.1, -1.5e-300, 4.9e-324, 1.7976931348623157e308, -3.0, 1e17][i]
        }),
    ]
}

fn uint() -> impl Strategy<Value = u64> {
    // Kept under 2^53 so the JSON number round-trips exactly.
    prop_oneof![0u64..1 << 53, (0usize..3).prop_map(|i| [0, 1, (1 << 53) - 1][i])]
}

fn theme() -> impl Strategy<Value = Theme> {
    prop_oneof![Just(Theme::Light), Just(Theme::Dark)]
}

fn mode() -> impl Strategy<Value = RecoveryMode> {
    prop_oneof![Just(RecoveryMode::Strict), Just(RecoveryMode::Lenient)]
}

fn opt_num() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![Just(None), num().prop_map(Some)]
}

fn command() -> impl Strategy<Value = Command> {
    prop_oneof![
        Just(Command::Ping),
        Just(Command::Sessions),
        name().prop_map(|session| Command::CloseSession { session }),
        (name(), mode(), name(), opt_name())
            .prop_map(|(session, mode, text, trace)| Command::LoadTrace { session, mode, text, trace }),
        (name(), name()).prop_map(|(session, trace)| Command::Attach { session, trace }),
        Just(Command::ListTraces),
        name().prop_map(|trace| Command::DropTrace { trace }),
        (name(), num(), num())
            .prop_map(|(session, start, end)| Command::SetTimeSlice { session, start, end }),
        (name(), name()).prop_map(|(session, container)| Command::Collapse { session, container }),
        (name(), name()).prop_map(|(session, container)| Command::Expand { session, container }),
        (name(), 0u32..12).prop_map(|(session, depth)| Command::CollapseAtDepth { session, depth }),
        name().prop_map(|session| Command::ExpandAll { session }),
        (name(), opt_num(), opt_num(), opt_num()).prop_map(|(session, repulsion, spring, damping)| {
            Command::SetForces { session, repulsion, spring, damping }
        }),
        (name(), name(), num())
            .prop_map(|(session, group, factor)| Command::SetScaling { session, group, factor }),
        (name(), name(), num(), num())
            .prop_map(|(session, container, x, y)| Command::Drag { session, container, x, y }),
        (name(), name()).prop_map(|(session, container)| Command::Release { session, container }),
        (name(), uint()).prop_map(|(session, steps)| Command::Relax { session, steps }),
        (name(), name(), name())
            .prop_map(|(session, metric, group)| Command::Aggregate { session, metric, group }),
        (
            (name(), num(), num(), theme(), boolean()),
            (opt_num(), opt_num(), opt_num()),
        )
            .prop_map(|((session, width, height, theme, labels), (zoom, pan_x, pan_y))| {
                Command::Render { session, width, height, theme, labels, zoom, pan_x, pan_y }
            }),
        (opt_name(), boolean())
            .prop_map(|(session, reset)| Command::Stats { session, reset }),
        (opt_name(), opt_uint()).prop_map(|(session, limit)| Command::Spans { session, limit }),
        name().prop_map(|session| Command::Checkpoint { session }),
        (name(), prop_oneof![Just(None), checkpoint().prop_map(|c| Some(Box::new(c)))])
            .prop_map(|(session, state)| Command::Restore { session, state }),
        (name(), uint(), name())
            .prop_map(|(session, seq, text)| Command::Append { session, seq, text }),
        name().prop_map(|session| Command::Seal { session }),
        (name(), opt_uint())
            .prop_map(|(session, from_seq)| Command::Subscribe { session, from_seq }),
        Just(Command::Shutdown),
    ]
}

fn opt_uint() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), uint().prop_map(Some)]
}

fn boolean() -> impl Strategy<Value = bool> {
    prop_oneof![Just(false), Just(true)]
}

/// A checkpoint with every member exercised, the optional journal link
/// included; the values need not describe a restorable session.
fn checkpoint() -> impl Strategy<Value = SessionCheckpoint> {
    let placement = (uint(), num(), num(), boolean())
        .prop_map(|(container, x, y, pinned)| NodePlacement { container, x, y, pinned });
    (
        (uint(), name(), uint(), (num(), num())),
        (
            proptest::collection::vec(uint(), 0..3),
            (num(), num(), num()),
            proptest::collection::vec((name(), num()), 0..3),
        ),
        (
            proptest::collection::vec(placement, 0..3),
            proptest::collection::vec((uint(), uint(), uint()), 0..3),
            uint(),
        ),
        (prop_oneof![Just(None), (name(), uint()).prop_map(Some)], name(), name()),
    )
        .prop_map(
            |(
                (version, session, revision, (slice_start, slice_end)),
                (collapsed, forces, scaling),
                (placements, quarantined, ingest_dropped),
                (journal, trace_hash, trace_csv),
            )| SessionCheckpoint {
                version,
                session,
                revision,
                slice_start,
                slice_end,
                collapsed,
                forces,
                scaling,
                placements,
                quarantined,
                ingest_dropped,
                journal,
                trace_hash,
                trace_csv,
            },
        )
}

fn stats_block() -> impl Strategy<Value = StatsBlock> {
    (
        uint(),
        (
            proptest::collection::vec((name(), uint()), 0..3),
            proptest::collection::vec((name(), num()), 0..3),
            proptest::collection::vec((name(), uint()), 0..3),
        ),
        (
            proptest::collection::vec(
                (uint(), name(), name())
                    .prop_map(|(seq, name, detail)| StatsEvent { seq, name, detail }),
                0..3,
            ),
            uint(),
        ),
    )
        .prop_map(|(clock, (counters, gauges, histograms), (events, events_dropped))| {
            StatsBlock { clock, counters, gauges, histograms, events, events_dropped }
        })
}

fn error_kind() -> impl Strategy<Value = ErrorKind> {
    let kinds = [
        ErrorKind::Protocol,
        ErrorKind::UnknownCommand,
        ErrorKind::NoSession,
        ErrorKind::UnknownContainer,
        ErrorKind::HiddenContainer,
        ErrorKind::UnknownMetric,
        ErrorKind::InvalidTimeSlice,
        ErrorKind::NonFinitePosition,
        ErrorKind::BadViewport,
        ErrorKind::BadTheme,
        ErrorKind::BadArgument,
        ErrorKind::ParseTrace,
        ErrorKind::BudgetExceeded,
        ErrorKind::NoTrace,
        ErrorKind::DeadlineExceeded,
        ErrorKind::BadCheckpoint,
        ErrorKind::NotLive,
        ErrorKind::SessionSealed,
        ErrorKind::JournalIo,
    ];
    prop_oneof![
        (0usize..kinds.len()).prop_map(move |i| kinds[i]),
        uint().prop_map(|retry_after_ms| ErrorKind::Overloaded { retry_after_ms }),
        uint().prop_map(|expected| ErrorKind::SeqGap { expected }),
    ]
}

fn opt_name() -> impl Strategy<Value = Option<String>> {
    prop_oneof![Just(None), name().prop_map(Some)]
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Pong),
        proptest::collection::vec(name(), 0..4)
            .prop_map(|names| Response::SessionList { names }),
        name().prop_map(|session| Response::Closed { session }),
        (name(), (uint(), uint(), uint(), uint()), num(), num(), opt_name()).prop_map(
            |(session, (containers, events, dropped, quarantined), start, end, breach)| {
                Response::Loaded {
                    session,
                    containers,
                    events,
                    dropped,
                    quarantined,
                    start,
                    end,
                    breach,
                }
            }
        ),
        (num(), num()).prop_map(|(start, end)| Response::Slice { start, end }),
        uint().prop_map(|revision| Response::Done { revision }),
        (num(), num(), num())
            .prop_map(|(repulsion, spring, damping)| Response::Forces { repulsion, spring, damping }),
        (uint(), opt_name()).prop_map(|(steps, frozen)| Response::Relaxed { steps, frozen }),
        ((uint(), uint()), (num(), num()), (num(), num(), num()), boolean())
            .prop_map(|((members, quarantined), (integral, mean), (min, max, median), empty)| {
                Response::Aggregated { members, integral, mean, min, max, median, quarantined, empty }
            }),
        (uint(), boolean(), name())
            .prop_map(|(revision, cached, svg)| Response::Frame { revision, cached, svg }),
        (name(), name(), (uint(), uint()), (num(), num())).prop_map(
            |(session, trace, (containers, events), (start, end))| Response::Attached {
                session,
                trace,
                containers,
                events,
                start,
                end,
            }
        ),
        proptest::collection::vec(
            (name(), name(), (uint(), uint(), uint())).prop_map(
                |(name, hash, (containers, events, sessions))| TraceEntry {
                    name,
                    hash,
                    containers,
                    events,
                    sessions,
                }
            ),
            0..3,
        )
        .prop_map(|traces| Response::TraceList { traces }),
        name().prop_map(|trace| Response::TraceDropped { trace }),
        (error_kind(), name()).prop_map(|(kind, message)| Response::Error { kind, message }),
        (
            uint(),
            stats_block(),
            prop_oneof![
                Just(None),
                (name(), uint(), opt_name(), stats_block()).prop_map(
                    |(name, revision, frozen, stats)| Some(Box::new(SessionStats {
                        name,
                        revision,
                        frozen,
                        stats
                    }))
                ),
            ],
        )
            .prop_map(|(sessions, server, session)| Response::Stats {
                sessions,
                server: Box::new(server),
                session
            }),
        (
            uint(),
            proptest::collection::vec(
                ((uint(), uint(), uint()), (name(), name()), (uint(), uint(), uint(), uint()))
                    .prop_map(
                        |((trace, id, parent), (name, detail), (shard, start_tick, end_tick, duration_ns))| {
                            SpanNode {
                                trace,
                                id,
                                parent,
                                name,
                                detail,
                                shard,
                                start_tick,
                                end_tick,
                                duration_ns,
                            }
                        }
                    ),
                0..3,
            ),
        )
            .prop_map(|(dropped, spans)| Response::Spans { dropped, spans }),
        (name(), checkpoint())
            .prop_map(|(session, state)| Response::Checkpointed { session, state: Box::new(state) }),
        (name(), uint()).prop_map(|(session, revision)| Response::Restored { session, revision }),
        (name(), uint(), uint(), boolean()).prop_map(|(session, seq, revision, duplicate)| {
            Response::Appended { session, seq, revision, duplicate }
        }),
        (name(), uint()).prop_map(|(session, last_seq)| Response::Sealed { session, last_seq }),
        (name(), uint())
            .prop_map(|(session, last_seq)| Response::Subscribed { session, last_seq }),
        (uint(), uint()).prop_map(|(sessions, checkpointed)| Response::ShutdownStarted {
            sessions,
            checkpointed
        }),
    ]
}

fn push() -> impl Strategy<Value = Push> {
    let node = ((uint(), name()), (num(), num(), uint())).prop_map(
        |((container, label), (fill, size, members))| DeltaNode { container, label, fill, size, members },
    );
    prop_oneof![
        (
            (name(), uint(), uint()),
            proptest::collection::vec(node, 0..3),
            proptest::collection::vec(uint(), 0..3),
        )
            .prop_map(|((session, seq, revision), changed, removed)| Push::Delta {
                session,
                seq,
                revision,
                changed,
                removed
            }),
        (name(), uint()).prop_map(|(session, resume_seq)| Push::Lagging { session, resume_seq }),
    ]
}

// ---------------------------------------------------------------------
// Codec identity
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// decode ∘ encode is the identity on commands, and the encoder is
    /// canonical: re-encoding the decoded value reproduces the bytes.
    #[test]
    fn command_codec_is_identity(cmd in command()) {
        let line = cmd.encode();
        let back = Command::decode(&line)
            .map_err(|e| TestCaseError::fail(format!("decode {line}: {e}")))?;
        prop_assert_eq!(&back, &cmd);
        prop_assert_eq!(back.encode(), line);
    }

    /// decode ∘ encode is the identity on responses, and canonical.
    #[test]
    fn response_codec_is_identity(resp in response()) {
        let line = resp.encode();
        let back = Response::decode(&line)
            .map_err(|e| TestCaseError::fail(format!("decode {line}: {e}")))?;
        prop_assert_eq!(&back, &resp);
        prop_assert_eq!(back.encode(), line);
    }

    /// decode ∘ encode is the identity on pushes, and canonical; every
    /// encoded push is recognized as one.
    #[test]
    fn push_codec_is_identity(push in push()) {
        let line = push.encode();
        prop_assert!(Push::is_push(&line), "{}", line);
        let back = Push::decode(&line)
            .map_err(|e| TestCaseError::fail(format!("decode {line}: {e}")))?;
        prop_assert_eq!(&back, &push);
        prop_assert_eq!(back.encode(), line);
    }
}

// ---------------------------------------------------------------------
// Golden transcript
// ---------------------------------------------------------------------

fn replay(script: &str) -> String {
    let server = Server::new(ServerLimits::default());
    let mut out = String::new();
    for line in script.lines() {
        if let Some(resp) = server.handle_line(line) {
            out.push_str(&resp);
            out.push('\n');
        }
    }
    out
}

/// The checked-in demo session replays deterministically: two fresh
/// servers produce byte-identical transcripts, and the bytes are
/// exactly the checked-in golden file (regenerate the golden with
/// `viva-server-client tests/data/server_session.script` if the
/// protocol legitimately changes).
#[test]
fn golden_transcript_replays_byte_identically() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/data");
    let script = std::fs::read_to_string(format!("{dir}/server_session.script"))
        .expect("checked-in script");
    let golden = std::fs::read_to_string(format!("{dir}/server_session.golden"))
        .expect("checked-in golden transcript");

    let first = replay(&script);
    let second = replay(&script);
    assert_eq!(first, second, "two fresh replays must be byte-identical");
    assert_eq!(first, golden, "replay must match the checked-in golden transcript");

    // Every response line must itself round-trip through the typed
    // codec — the transcript is not just stable, it is well-formed.
    for line in first.lines() {
        let resp = Response::decode(line).expect("transcript line decodes");
        assert_eq!(resp.encode(), line, "transcript lines are canonical");
    }
}

/// Level jumps over a trace of three sites that communicate across
/// clusters and sites, so every merge and split rewires edges: each
/// `collapse_at_depth` (1, 2, 3, 0), `expand_all`, single
/// `collapse`/`expand` and a short `relax` is followed by a camera-less
/// and a camera render, and the transcript is exactly the checked-in
/// golden (regenerate it with `viva-server --stdio` only if the layout
/// or the renderer legitimately changes).
#[test]
fn level_jump_transcript_replays_byte_identically() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/data");
    let script =
        std::fs::read_to_string(format!("{dir}/server_levels.script")).expect("checked-in script");
    let golden = std::fs::read_to_string(format!("{dir}/server_levels.golden"))
        .expect("checked-in golden transcript");
    assert_eq!(replay(&script), golden, "replay must match the checked-in golden transcript");
}

// ---------------------------------------------------------------------
// Decode errors
// ---------------------------------------------------------------------

/// A valid inline `restore` state; each checkpoint case below breaks
/// one member of it.
const STATE: &str = r#"{"version":3,"session":"s","revision":0,"slice":{"start":0,"end":10},"collapsed":[],"forces":{"repulsion":100,"spring":2,"damping":0.6},"scaling":{},"nodes":[{"c":1,"x":0,"y":0,"pin":false}],"quarantined":[],"ingest_dropped":0,"journal":{"id":"s","last_seq":1},"trace_hash":"0000000000000000","trace_csv":"span,0,10\n"}"#;

/// Every way a request line can fail to decode answers one exact line:
/// the error kind and the message clients see.
#[test]
fn decode_error_texts_are_pinned() {
    let restore = |from: &str, to: &str| {
        assert!(STATE.contains(from), "{from}");
        format!(
            r#"{{"cmd":"restore","session":"s","state":{}}}"#,
            STATE.replacen(from, to, 1)
        )
    };
    let cases: Vec<(String, &str)> = vec![
        (r#"not json"#.into(),
            r#"{"err":"protocol","message":"invalid JSON: expected \"null\" at byte 0"}"#),
        (r#"{"cmd":"ping""#.into(),
            r#"{"err":"protocol","message":"invalid JSON: expected ',' or '}' at byte 13"}"#),
        (r#"[1,2]"#.into(),
            r#"{"err":"protocol","message":"request must be a JSON object"}"#),
        (r#""ping""#.into(),
            r#"{"err":"protocol","message":"request must be a JSON object"}"#),
        (r#"{"session":"s"}"#.into(),
            r#"{"err":"protocol","message":"missing or non-string field \"cmd\""}"#),
        (r#"{"cmd":7}"#.into(),
            r#"{"err":"protocol","message":"missing or non-string field \"cmd\""}"#),
        (r#"{"cmd":"warp"}"#.into(),
            r#"{"err":"unknown_command","message":"unknown command \"warp\""}"#),
        (r#"{"cmd":"load_trace","session":"s","mode":"yolo","text":""}"#.into(),
            r#"{"err":"protocol","message":"unknown mode \"yolo\" (expected \"strict\" or \"lenient\")"}"#),
        (r#"{"cmd":"load_trace","session":"s","text":""}"#.into(),
            r#"{"err":"protocol","message":"missing or non-string field \"mode\""}"#),
        (r#"{"cmd":"load_trace","session":"s","mode":"strict"}"#.into(),
            r#"{"err":"protocol","message":"missing or non-string field \"text\""}"#),
        (r#"{"cmd":"load_trace","session":"s","mode":"strict","text":"","trace":5}"#.into(),
            r#"{"err":"protocol","message":"non-string field \"trace\""}"#),
        (r#"{"cmd":"render","session":"s","width":800,"height":600,"theme":"sepia"}"#.into(),
            r#"{"err":"bad_theme","message":"bad theme: unknown theme \"sepia\" (expected \"light\" or \"dark\")"}"#),
        (r#"{"cmd":"render","session":"s","width":800,"height":600}"#.into(),
            r#"{"err":"protocol","message":"missing or non-string field \"theme\""}"#),
        (r#"{"cmd":"render","session":"s","width":"800","height":600,"theme":"light"}"#.into(),
            r#"{"err":"protocol","message":"missing or non-numeric field \"width\""}"#),
        (r#"{"cmd":"render","session":"s","width":800,"height":600,"theme":"light","labels":"yes"}"#.into(),
            r#"{"err":"protocol","message":"non-boolean field \"labels\""}"#),
        (r#"{"cmd":"render","session":"s","width":800,"height":600,"theme":"light","zoom":"2"}"#.into(),
            r#"{"err":"protocol","message":"non-numeric field \"zoom\""}"#),
        (r#"{"cmd":"collapse","session":"s"}"#.into(),
            r#"{"err":"protocol","message":"missing or non-string field \"container\""}"#),
        (r#"{"cmd":"close_session","session":5}"#.into(),
            r#"{"err":"protocol","message":"missing or non-string field \"session\""}"#),
        (r#"{"cmd":"relax","session":"s","steps":2.5}"#.into(),
            r#"{"err":"protocol","message":"missing or non-integer field \"steps\""}"#),
        (r#"{"cmd":"relax","session":"s","steps":-1}"#.into(),
            r#"{"err":"protocol","message":"missing or non-integer field \"steps\""}"#),
        (r#"{"cmd":"set_time_slice","session":"s","start":"a","end":1}"#.into(),
            r#"{"err":"protocol","message":"missing or non-numeric field \"start\""}"#),
        (r#"{"cmd":"collapse_at_depth","session":"s","depth":4294967296}"#.into(),
            r#"{"err":"protocol","message":"depth out of range"}"#),
        (r#"{"cmd":"collapse_at_depth","session":"s","depth":1.5}"#.into(),
            r#"{"err":"protocol","message":"missing or non-integer field \"depth\""}"#),
        (r#"{"cmd":"set_forces","session":"s","repulsion":"x"}"#.into(),
            r#"{"err":"protocol","message":"non-numeric field \"repulsion\""}"#),
        (r#"{"cmd":"stats","reset":1}"#.into(),
            r#"{"err":"protocol","message":"non-boolean field \"reset\""}"#),
        (r#"{"cmd":"stats","session":5}"#.into(),
            r#"{"err":"protocol","message":"non-string field \"session\""}"#),
        (r#"{"cmd":"spans","limit":-1}"#.into(),
            r#"{"err":"protocol","message":"non-integer field \"limit\""}"#),
        (r#"{"cmd":"subscribe","session":"s","from_seq":"x"}"#.into(),
            r#"{"err":"protocol","message":"non-integer field \"from_seq\""}"#),
        (r#"{"cmd":"append","session":"s","seq":1}"#.into(),
            r#"{"err":"protocol","message":"missing or non-string field \"text\""}"#),
        (restore(r#""version":3"#, r#""version":"3""#),
            r#"{"err":"protocol","message":"missing or non-integer checkpoint field \"version\""}"#),
        (restore(r#""session":"s""#, r#""session":5"#),
            r#"{"err":"protocol","message":"missing or non-string checkpoint field \"session\""}"#),
        (restore(r#""start":0"#, r#""start":"x""#),
            r#"{"err":"protocol","message":"missing or non-numeric checkpoint field \"start\""}"#),
        (restore(r#""damping":0.6"#, r#""damping":null"#),
            r#"{"err":"protocol","message":"missing or non-numeric checkpoint field \"damping\""}"#),
        (restore(r#""collapsed":[]"#, r#""collapsed":{}"#),
            r#"{"err":"protocol","message":"missing or non-array checkpoint field \"collapsed\""}"#),
        (restore(r#""nodes":[{"c":1,"x":0,"y":0,"pin":false}]"#, r#""nodes":{}"#),
            r#"{"err":"protocol","message":"missing or non-array checkpoint field \"nodes\""}"#),
        (restore(r#""x":0"#, r#""x":"a""#),
            r#"{"err":"protocol","message":"missing or non-numeric checkpoint field \"x\""}"#),
        (restore(r#""scaling":{}"#, r#""scaling":[]"#),
            r#"{"err":"protocol","message":"missing or non-object checkpoint field \"scaling\""}"#),
        (restore(r#""quarantined":[]"#, r#""quarantined":7"#),
            r#"{"err":"protocol","message":"missing or non-array checkpoint field \"quarantined\""}"#),
        (restore(r#""ingest_dropped":0"#, r#""ingest_dropped":-2"#),
            r#"{"err":"protocol","message":"missing or non-integer checkpoint field \"ingest_dropped\""}"#),
        (restore(r#""last_seq":1"#, r#""last_seq":-1"#),
            r#"{"err":"protocol","message":"missing or non-integer checkpoint field \"last_seq\""}"#),
        (restore(r#""trace_hash":"0000000000000000""#, r#""trace_hash":5"#),
            r#"{"err":"protocol","message":"non-string checkpoint field \"trace_hash\""}"#),
        (restore(r#","trace_csv":"span,0,10\n""#, ""),
            r#"{"err":"protocol","message":"missing or non-string checkpoint field \"trace_csv\""}"#),
    ];
    let server = Server::new(ServerLimits::default());
    for (line, expected) in &cases {
        let got = server.handle_line(line).expect("a response line");
        assert_eq!(&got, expected, "{line}");
    }
}
