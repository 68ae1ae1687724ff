#!/usr/bin/env bash
# Local CI gate: build, lints, full test suite. Run before pushing.
# `./ci.sh scale-smoke` runs only the columnar+LoD scale gate.
set -euo pipefail
cd "$(dirname "$0")"

scale_smoke() {
  echo "==> scale-smoke: columnar+LoD gates, golden LoD and level-jump transcript replays"
  # The reduced fig_scale run exercises the full pipeline (trace build,
  # memory-ratio assertion, LoD cut tiling) without the timing gates.
  cargo run --quiet --release -p viva-bench --bin fig_scale -- --small > /dev/null
  # Camera renders over the wire are deterministic: the checked-in LoD
  # script (camera-less baseline, identity camera, zoom/pan sweeps, an
  # invalid camera's typed error) must reproduce its golden transcript
  # byte for byte — twice over stdio, once over TCP.
  target/release/viva-server --stdio \
    < tests/data/server_lod.script > /tmp/viva_lod_smoke_1.ndjson
  target/release/viva-server --stdio \
    < tests/data/server_lod.script > /tmp/viva_lod_smoke_2.ndjson
  diff -u tests/data/server_lod.golden /tmp/viva_lod_smoke_1.ndjson
  diff -u /tmp/viva_lod_smoke_1.ndjson /tmp/viva_lod_smoke_2.ndjson
  # Level jumps (collapse_at_depth 0-3, expand_all, collapse/expand,
  # relax) over communicating sites, each followed by a camera-less and
  # a camera render: merges and splits must not move a byte either.
  for run in 1 2; do
    target/release/viva-server --stdio \
      < tests/data/server_levels.script > "/tmp/viva_levels_smoke_$run.ndjson"
    diff -u tests/data/server_levels.golden "/tmp/viva_levels_smoke_$run.ndjson"
  done
  rm -f /tmp/viva_lod_smoke_tcp.log
  target/release/viva-server --tcp 127.0.0.1:0 --workers 2 \
    > /dev/null 2> /tmp/viva_lod_smoke_tcp.log &
  LOD_SRV_PID=$!
  LOD_ADDR=""
  for _ in $(seq 1 200); do
    LOD_ADDR=$(sed -n 's/^viva-server: listening on \([0-9.:]*\) .*/\1/p' /tmp/viva_lod_smoke_tcp.log)
    [ -n "$LOD_ADDR" ] && break
    sleep 0.05
  done
  test -n "$LOD_ADDR" || { echo "viva-server never announced its address" >&2; kill "$LOD_SRV_PID"; exit 1; }
  target/release/viva-server-client --tcp "$LOD_ADDR" tests/data/server_lod.script \
    > /tmp/viva_lod_smoke_tcp.ndjson
  diff -u tests/data/server_lod.golden /tmp/viva_lod_smoke_tcp.ndjson
  target/release/viva-server-client --tcp "$LOD_ADDR" tests/data/server_levels.script \
    > /tmp/viva_levels_smoke_tcp.ndjson
  diff -u tests/data/server_levels.golden /tmp/viva_levels_smoke_tcp.ndjson
  echo '{"cmd":"shutdown"}' | target/release/viva-server-client --tcp "$LOD_ADDR" > /dev/null
  wait "$LOD_SRV_PID"
}

if [ "${1:-}" = "scale-smoke" ]; then
  cargo build --quiet --release -p viva-bench -p viva-server
  scale_smoke
  echo "ci: scale-smoke green"
  exit 0
fi

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo build viva-perf (the benchmark, outside the workspace)"
# viva-perf uses the server's public protocol API, so a change that
# breaks it must fail here rather than first in a benchmark run. The
# build writes only to viva-perf/target; --locked keeps its lock file.
cargo build --release --offline --locked --manifest-path viva-perf/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> smoke: figure harnesses (--small)"
cargo run --quiet --release -p viva-bench --bin fig10_faulttolerance -- --small > /dev/null
# Interactivity smoke: asserts that the aggregation index and the naive
# subtree rescan give equal integrals and means for every frontier node
# and slice window (panics on any divergence); timings themselves are
# only asserted by the full run.
cargo run --quiet --release -p viva-bench --bin fig_interactivity -- --small > /dev/null

echo "==> server-smoke: stdio replay against the golden transcript"
# The wire protocol is deterministic by construction: piping the
# checked-in session script through a fresh stdio server must reproduce
# the checked-in golden transcript byte for byte — twice, so "it only
# worked because of leftover state" is also ruled out. The server bench
# smoke then exercises the concurrent-session path (throughput timings
# are only asserted by the full run).
cargo run --quiet --release -p viva-server --bin viva-server -- --stdio \
  < tests/data/server_session.script > /tmp/viva_server_smoke_1.ndjson
cargo run --quiet --release -p viva-server --bin viva-server -- --stdio \
  < tests/data/server_session.script > /tmp/viva_server_smoke_2.ndjson
diff -u tests/data/server_session.golden /tmp/viva_server_smoke_1.ndjson
diff -u /tmp/viva_server_smoke_1.ndjson /tmp/viva_server_smoke_2.ndjson
# The live-stream script pins push placement: each delta push follows
# the response that caused it. Both runs must match the golden. TCP
# replays of it, line at a time and pipelined, run in
# tests/tests/server_tcp.rs (viva-server-client reads one line per
# request, so it cannot check pushes).
for run in 1 2; do
  target/release/viva-server --stdio \
    < tests/data/server_stream.script > "/tmp/viva_stream_golden_$run.ndjson"
  diff -u tests/data/server_stream.golden "/tmp/viva_stream_golden_$run.ndjson"
done

echo "==> server-smoke: TCP replay over the event-driven transport"
# The same script over a real socket against the sharded readiness loop
# must also reproduce the golden transcript byte for byte — the
# transport never changes a byte. The server is then drained with a
# protocol `shutdown`, which must end the process cleanly (all shard
# workers join).
rm -f /tmp/viva_server_smoke_tcp.log
target/release/viva-server --tcp 127.0.0.1:0 --workers 4 \
  > /dev/null 2> /tmp/viva_server_smoke_tcp.log &
SRV_PID=$!
ADDR=""
for _ in $(seq 1 200); do
  ADDR=$(sed -n 's/^viva-server: listening on \([0-9.:]*\) .*/\1/p' /tmp/viva_server_smoke_tcp.log)
  [ -n "$ADDR" ] && break
  sleep 0.05
done
test -n "$ADDR" || { echo "viva-server never announced its address" >&2; kill "$SRV_PID"; exit 1; }
target/release/viva-server-client --tcp "$ADDR" tests/data/server_session.script \
  > /tmp/viva_server_smoke_tcp.ndjson
diff -u tests/data/server_session.golden /tmp/viva_server_smoke_tcp.ndjson

echo "==> server-smoke: multi-MB inline upload over stdio and TCP"
# The request codec is linear in the line length, so a trace uploaded
# inline as one ~3.5 MB `load_trace` line loads in well under a second.
# The timeout is generous on purpose: it only catches a codec that has
# gone superlinear again (such a line would then take minutes).
UPLOAD_SCRIPT=/tmp/viva_upload_smoke.script
awk 'BEGIN {
  hosts = 200; steps = 800
  printf "{\"cmd\":\"load_trace\",\"session\":\"up\",\"mode\":\"strict\",\"text\":\"span,0.0,%d.0", steps
  for (h = 1; h <= hosts; h++) printf "\\ncontainer,%d,0,host,h%d", h, h
  printf "\\nmetric,0,MFlop/s,power"
  for (t = 0; t < steps; t++)
    for (h = 1; h <= hosts; h++) printf "\\nvar,%d.0,%d,0,%d.5", t, h, (h * 7 + t * 13) % 1000
  printf "\"}\n"
  printf "{\"cmd\":\"render\",\"session\":\"up\",\"width\":800,\"height\":600,\"theme\":\"light\",\"labels\":false}\n"
}' > "$UPLOAD_SCRIPT"
test "$(head -n 1 "$UPLOAD_SCRIPT" | wc -c)" -gt 3000000
# Exactly two answers: the upload's `loaded`, then the session's frame.
check_upload() {
  awk 'NR == 1 && /^\{"ok":"loaded","session":"up",/ { loaded = 1 }
       NR == 2 && /^\{"ok":"frame",/ { frame = 1 }
       END { exit !(NR == 2 && loaded && frame) }' "$1" \
    || { echo "upload smoke: expected a loaded answer and a frame in $1" >&2; return 1; }
}
timeout 60 target/release/viva-server --stdio < "$UPLOAD_SCRIPT" > /tmp/viva_upload_smoke_stdio.ndjson
check_upload /tmp/viva_upload_smoke_stdio.ndjson
timeout 60 target/release/viva-server-client --tcp "$ADDR" "$UPLOAD_SCRIPT" \
  > /tmp/viva_upload_smoke_tcp.ndjson
check_upload /tmp/viva_upload_smoke_tcp.ndjson
cmp /tmp/viva_upload_smoke_stdio.ndjson /tmp/viva_upload_smoke_tcp.ndjson

echo '{"cmd":"shutdown"}' | target/release/viva-server-client --tcp "$ADDR" > /dev/null
wait "$SRV_PID"

echo "==> server-smoke: an idle TCP server uses no CPU"
# Idle shards block in poll(2) rather than wake on a timer, so four
# idle workers may spend at most 2 clock ticks of CPU (utime + stime
# in /proc/PID/stat) in 2 s. `timeout` bounds the server's life even
# if this step fails half way.
timeout 30 target/release/viva-server --tcp 127.0.0.1:0 --workers 4 > /dev/null 2>&1 &
IDLE_TIMEOUT_PID=$!
sleep 1
IDLE_PID=$(pgrep -P "$IDLE_TIMEOUT_PID" viva-server)
cpu_ticks() { sed 's/^.*) //' "/proc/$1/stat" | awk '{ print $12 + $13 }'; }
IDLE_T0=$(cpu_ticks "$IDLE_PID")
sleep 2
IDLE_T1=$(cpu_ticks "$IDLE_PID")
kill "$IDLE_TIMEOUT_PID"
wait "$IDLE_TIMEOUT_PID" 2> /dev/null || true
test $((IDLE_T1 - IDLE_T0)) -le 2 \
  || { echo "idle viva-server used $((IDLE_T1 - IDLE_T0)) CPU ticks in 2 s (limit 2)" >&2; exit 1; }
cargo run --quiet --release -p viva-bench --bin fig_server -- --small > /dev/null

scale_smoke

echo "==> obs-smoke: metrics/tracing replays byte-identical, self-trace deterministic"
# Observability must never perturb the protocol: the same script with
# self-profiling enabled must still reproduce the golden transcript
# byte for byte, while the Prometheus-style exposition file materializes
# alongside. The obs bench smoke then verifies the per-command counters
# against the commands actually served (overhead is only asserted by
# the full run).
cargo run --quiet --release -p viva-server --bin viva-server -- --stdio \
  --metrics-out /tmp/viva_server_smoke_metrics.txt \
  < tests/data/server_session.script > /tmp/viva_server_smoke_obs.ndjson
diff -u tests/data/server_session.golden /tmp/viva_server_smoke_obs.ndjson
test -s /tmp/viva_server_smoke_metrics.txt
grep -q 'viva_counter{scope="server",name="server.cmd.render"}' /tmp/viva_server_smoke_metrics.txt
# The stats golden pins the reset semantics on the wire: the reset
# response carries the pre-reset snapshot, the follow-up shows zeroed
# counters and histograms with gauges untouched, and the exact
# histogram bucket bounds ride along.
cargo run --quiet --release -p viva-server --bin viva-server -- --stdio \
  --metrics-out /tmp/viva_server_smoke_stats_metrics.txt \
  < tests/data/server_stats.script > /tmp/viva_server_smoke_stats.ndjson
diff -u tests/data/server_stats.golden /tmp/viva_server_smoke_stats.ndjson
# Self-trace determinism: the same golden replay with span tracing on
# (fixed seed, sample-everything) still matches the golden transcript,
# two runs export byte-identical CSV (logical ticks, never wall time),
# and the export passes the same strict ingest bar as any real trace.
rm -rf /tmp/viva_selftrace_1 /tmp/viva_selftrace_2
target/release/viva-server --stdio --self-trace /tmp/viva_selftrace_1 \
  --trace-seed 42 --trace-sample 1 \
  < tests/data/server_session.script > /tmp/viva_server_smoke_selftrace_1.ndjson
target/release/viva-server --stdio --self-trace /tmp/viva_selftrace_2 \
  --trace-seed 42 --trace-sample 1 \
  < tests/data/server_session.script > /tmp/viva_server_smoke_selftrace_2.ndjson
diff -u tests/data/server_session.golden /tmp/viva_server_smoke_selftrace_1.ndjson
diff -u /tmp/viva_selftrace_1/selftrace.csv /tmp/viva_selftrace_2/selftrace.csv
target/release/viva-server --check-trace /tmp/viva_selftrace_1/selftrace.csv
# Metrics and tracing together (one phase feeds both): the transcript
# still matches the golden, the export still passes the ingest bar, and
# the dump carries the phase histograms that used to be spans only.
rm -rf /tmp/viva_selftrace_both
target/release/viva-server --stdio --self-trace /tmp/viva_selftrace_both \
  --trace-seed 42 --trace-sample 1 --metrics-out /tmp/viva_server_smoke_both_metrics.txt \
  < tests/data/server_session.script > /tmp/viva_server_smoke_both.ndjson
diff -u tests/data/server_session.golden /tmp/viva_server_smoke_both.ndjson
target/release/viva-server --check-trace /tmp/viva_selftrace_both/selftrace.csv
grep -q 'viva_hist_count{scope="server",name="session.lock.seconds"}' \
  /tmp/viva_server_smoke_both_metrics.txt
cargo run --quiet --release -p viva-bench --bin fig_obs -- --small > /dev/null

echo "==> fuzz-smoke: adversarial ingest corpus, both recovery modes"
# Deterministic and offline: every corpus file plus synthesized
# pathologies (10 MB lines, NaN floods, id collisions) must load
# without panics, with stable error summaries, and render a valid SVG
# carrying the degraded-data badge wherever events survived.
cargo run --quiet --release -p viva-bench --bin fuzz_ingest > /dev/null

echo "==> chaos-smoke: adversarial serving, recovery, and overload shedding"
# The chaos harness drives seeded hostile traffic (garbage frames, NaN
# sliders, torn frames, slow-loris peers, kill->restore->replay cycles,
# mutated checkpoints, a mid-storm golden replay) and asserts zero
# panics, zero wedges, byte-identical recovery renders, and a clean
# graceful drain. Its TCP storm runs over the same event-driven shard
# loop `viva-server --tcp` serves with. The resilience bench smoke then checks the gate sheds
# under pressure and restore works (latency claims are only asserted by
# the full run).
cargo run --quiet --release -p viva-bench --bin fuzz_server > /dev/null
cargo run --quiet --release -p viva-bench --bin fig_resilience -- --small > /dev/null

echo "==> stream-smoke: durable appends survive SIGKILL, resend converges"
# End-to-end durability at the process level: a client streams 10k
# events into a journaled TCP server, the server is SIGKILLed mid-
# append, a fresh server over the same journal directory recovers the
# session, and the client's at-least-once resend (duplicates acked
# idempotently, remainder applied) must converge to a render byte-
# identical to an uninterrupted run. A `--follow` subscriber on the
# recovered server must then see a live delta push. The streaming bench
# smoke re-checks recovery byte-identity and subscriber fan-out in
# process (timing gates are only asserted by the full run).
STREAM_SCRIPT=/tmp/viva_stream_smoke.script
STREAM_DIR_GOLD=/tmp/viva_stream_smoke_gold
STREAM_DIR_CRASH=/tmp/viva_stream_smoke_crash
rm -rf "$STREAM_DIR_GOLD" "$STREAM_DIR_CRASH"
{
  printf '{"cmd":"append","session":"live","seq":1,"text":"span,0.0,20000.0\\ncontainer,1,0,host,h0\\ncontainer,2,0,host,h1\\nmetric,0,MFlop/s,power\\nvar,0.0,1,0,100.0\\nvar,0.0,2,0,50.0"}\n'
  awk 'BEGIN { for (i = 2; i <= 10000; i++)
    printf "{\"cmd\":\"append\",\"session\":\"live\",\"seq\":%d,\"text\":\"var,%d,%d,0,%d\"}\n", i, i, (i % 2) + 1, i % 100 }'
  printf '{"cmd":"render","session":"live","width":640,"height":480,"theme":"light","labels":false}\n'
} > "$STREAM_SCRIPT"
# The uninterrupted reference run (stdio, journaled like the real one).
cargo run --quiet --release -p viva-server --bin viva-server -- --stdio \
  --journal-dir "$STREAM_DIR_GOLD" --journal-sync-every 100 \
  < "$STREAM_SCRIPT" | tail -n 1 > /tmp/viva_stream_smoke_gold.render
# The crashed run: fsync every append so every acked event survives.
rm -f /tmp/viva_stream_smoke_tcp.log
target/release/viva-server --tcp 127.0.0.1:0 --workers 2 \
  --journal-dir "$STREAM_DIR_CRASH" --journal-sync-every 1 \
  > /dev/null 2> /tmp/viva_stream_smoke_tcp.log &
SRV_PID=$!
ADDR=""
for _ in $(seq 1 200); do
  ADDR=$(sed -n 's/^viva-server: listening on \([0-9.:]*\) .*/\1/p' /tmp/viva_stream_smoke_tcp.log)
  [ -n "$ADDR" ] && break
  sleep 0.05
done
test -n "$ADDR" || { echo "viva-server never announced its address" >&2; kill "$SRV_PID"; exit 1; }
target/release/viva-server-client --tcp "$ADDR" "$STREAM_SCRIPT" > /dev/null 2>&1 &
CLIENT_PID=$!
# Pull the trigger once at least ~2000 appends are durable, so the kill
# lands mid-stream rather than before or after it.
for _ in $(seq 1 500); do
  [ -f "$STREAM_DIR_CRASH/live.journal" ] \
    && [ "$(wc -l < "$STREAM_DIR_CRASH/live.journal")" -ge 2000 ] && break
  sleep 0.01
done
kill -9 "$SRV_PID" 2> /dev/null || true
wait "$SRV_PID" 2> /dev/null || true
wait "$CLIENT_PID" 2> /dev/null || true
test -s "$STREAM_DIR_CRASH/live.journal" || { echo "no journal written before the kill" >&2; exit 1; }
# Restart over the same journal directory: the session must come back,
# and resending the whole stream must converge byte-for-byte.
rm -f /tmp/viva_stream_smoke_tcp2.log
target/release/viva-server --tcp 127.0.0.1:0 --workers 2 \
  --journal-dir "$STREAM_DIR_CRASH" --journal-sync-every 1 \
  > /dev/null 2> /tmp/viva_stream_smoke_tcp2.log &
SRV_PID=$!
ADDR=""
for _ in $(seq 1 200); do
  ADDR=$(sed -n 's/^viva-server: listening on \([0-9.:]*\) .*/\1/p' /tmp/viva_stream_smoke_tcp2.log)
  [ -n "$ADDR" ] && break
  sleep 0.05
done
test -n "$ADDR" || { echo "restarted viva-server never announced its address" >&2; kill "$SRV_PID"; exit 1; }
grep -q 'recovered live session "live"' /tmp/viva_stream_smoke_tcp2.log \
  || { echo "restarted server did not recover the live session" >&2; kill "$SRV_PID"; exit 1; }
target/release/viva-server-client --tcp "$ADDR" "$STREAM_SCRIPT" \
  | tail -n 1 > /tmp/viva_stream_smoke_recovered.render
diff -u /tmp/viva_stream_smoke_gold.render /tmp/viva_stream_smoke_recovered.render
# A live follower on the recovered stream must see the next delta.
target/release/viva-server-client --tcp "$ADDR" --follow live \
  > /tmp/viva_stream_smoke_follow.ndjson 2> /dev/null &
FOLLOW_PID=$!
sleep 0.3
echo '{"cmd":"append","session":"live","seq":10001,"text":"var,10001,1,0,42"}' \
  | target/release/viva-server-client --tcp "$ADDR" > /dev/null
for _ in $(seq 1 100); do
  grep -q '"push":"delta"' /tmp/viva_stream_smoke_follow.ndjson && break
  sleep 0.05
done
kill "$FOLLOW_PID" 2> /dev/null || true
wait "$FOLLOW_PID" 2> /dev/null || true
grep -q '"push":"subscribed"\|"ok":"subscribed"' /tmp/viva_stream_smoke_follow.ndjson \
  || { echo "follower never subscribed" >&2; kill "$SRV_PID"; exit 1; }
grep -q '"push":"delta"' /tmp/viva_stream_smoke_follow.ndjson \
  || { echo "follower never saw a delta push" >&2; kill "$SRV_PID"; exit 1; }
echo '{"cmd":"shutdown"}' | target/release/viva-server-client --tcp "$ADDR" > /dev/null
wait "$SRV_PID"
cargo run --quiet --release -p viva-bench --bin fig_streaming -- --small > /dev/null

echo "ci: all green"
