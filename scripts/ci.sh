#!/usr/bin/env bash
# Offline CI gate: release build, full test suite, the engine perf
# baseline, and a perf-regression check against the committed baseline,
# with warnings denied. Uses only vendored dependencies — safe to run
# without network access.
#
# Every gate runs, even after an earlier one failed: each runs in its own
# `set -e` subshell and reads its inputs from the files earlier steps
# wrote. The script prints a verdict per gate, ends with one line per
# failed gate, and exits 1 if any gate failed.
set -uo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:--Dwarnings}"
export CARGO_NET_OFFLINE=true

# Every report this script writes goes to one private scratch directory
# (under $TMPDIR when set), so two checkouts can run CI on one host without
# overwriting each other's reports. It is removed on exit.
CI_TMP="$(mktemp -d "${TMPDIR:-/tmp}/footsteps_ci.XXXXXX")"
SWEEP_DIR="$CI_TMP/sweep"
trap 'rm -rf "$CI_TMP"' EXIT

# Reports shared between steps.
BASELINE_FILE="BENCH_daily_engine.baseline.json"
FRESH_FILE="$CI_TMP/BENCH_daily_engine.ci.json"
FRESH_T8_FILE="$CI_TMP/BENCH_daily_engine.ci.t8.json"
TRACE_FILE="$CI_TMP/footsteps_trace.ci.json"
TRACED_PERF="$CI_TMP/BENCH_daily_engine.ci.traced.json"

extract_days_per_sec() {
  # Accepts plain decimals and scientific notation (1234.5, 1.2345e3);
  # the old [0-9.]* pattern silently truncated "1.2e3" to "1.2".
  sed -n 's/.*"days_per_sec": *\(-\{0,1\}[0-9][0-9]*\(\.[0-9][0-9]*\)\{0,1\}\([eE][+-]\{0,1\}[0-9][0-9]*\)\{0,1\}\).*/\1/p' "$1" | head -n 1
}

extract_results_digest() {
  sed -n 's/.*"results_digest": *"\(0x[0-9a-f]*\)".*/\1/p' "$1" | head -n 1
}

extract_structure_digest() {
  sed -n 's/.*"structure_digest": *"\(0x[0-9a-f]*\)".*/\1/p' "$1" | head -n 1
}

# A throughput must be a finite positive number, or the gate is meaningless.
check_positive_number() {
  awk -v v="$2" 'BEGIN { exit !(v + 0 > 0) }' || {
    echo "perf gate: unparseable days_per_sec in $1 (got '$2')" >&2
    exit 1
  }
}

gate_build() {
  cargo build --release
}

gate_lint() {
  # Machine-checks the determinism contract (DESIGN.md §6); findings are
  # written as JSON for post-mortem even when the gate passes, and the
  # call-graph coverage stats are printed so resolution regressions are
  # visible in the CI log. The interprocedural pass is also self-benched:
  # the whole workspace analysis must stay under 30 s wall time or the
  # lint has regressed from "free in CI" to "a build phase".
  LINT_BUDGET_SECS=30
  lint_start=$(date +%s)
  cargo run --release -q -p footsteps-lint -- --stats --json-out "$CI_TMP/footsteps_lint.ci.json"
  lint_elapsed=$(( $(date +%s) - lint_start ))
  echo "lint wall time: ${lint_elapsed}s (budget ${LINT_BUDGET_SECS}s)"
  if [ "$lint_elapsed" -gt "$LINT_BUDGET_SECS" ]; then
    echo "lint gate: FAIL — interprocedural pass took ${lint_elapsed}s > ${LINT_BUDGET_SECS}s" >&2
    exit 1
  fi
}

gate_test() {
  cargo test -q
}

gate_vendored() {
  # The vendored work-alikes are path dependencies, not workspace members,
  # so the workspace `cargo test` above does not run their own tests.
  cargo test -q -p serde -p serde_json -p serde_derive -p rand -p proptest
}

gate_footbench() {
  # footbench is a Cargo workspace of its own (it builds the repository's
  # crates by path), so the workspace `cargo test` does not reach it. Its
  # tests check that every metric is emitted with its unit, that no check
  # fails, that named layers cover >= 90% of each operation, and that
  # BENCHMARK.json matches the code.
  cargo test --release --offline --manifest-path footbench/Cargo.toml
}

gate_sweep() {
  # Two seeds of the smoke scenario on the bounded pool, then prove the
  # resume path is a no-op on a finished manifest and that the aggregate
  # report shows real cross-seed variance.
  mkdir "$SWEEP_DIR"
  ./target/release/sweep run --dir "$SWEEP_DIR" --seeds 2 --workers 2 --scenario smoke

  # The wire size of every checkpoint the sweep wrote and of each job's
  # event log. A checkpoint points at its job's log instead of embedding
  # the recorded days, so every smoke checkpoint must stay under 10 MB.
  CKPT_LIMIT_BYTES=10000000
  for ckpt in "$SWEEP_DIR"/ckpt_*.json; do
    [ -f "$ckpt" ] || continue
    ckpt_bytes=$(wc -c < "$ckpt" | tr -d ' ')
    echo "checkpoint $(basename "$ckpt"): $ckpt_bytes bytes"
    if [ "$ckpt_bytes" -ge "$CKPT_LIMIT_BYTES" ]; then
      echo "sweep gate: $(basename "$ckpt") is $ckpt_bytes bytes, not under $CKPT_LIMIT_BYTES" >&2
      exit 1
    fi
  done
  for log in "$SWEEP_DIR"/log_*.jsonl; do
    [ -f "$log" ] || continue
    echo "event log $(basename "$log"): $(wc -c < "$log" | tr -d ' ') bytes"
  done

  # The two per-seed digests must differ — identical digests would mean
  # the seeds were not actually varied.
  digests=$(sed -n 's/.*"digest": \([0-9][0-9]*\).*/\1/p' "$SWEEP_DIR/manifest.json")
  if [ "$(printf '%s\n' "$digests" | wc -l)" -ne 2 ]; then
    echo "sweep gate: expected 2 per-seed digests, got: $digests" >&2
    exit 1
  fi
  if [ "$(printf '%s\n' "$digests" | sort -u | wc -l)" -ne 2 ]; then
    echo "sweep gate: per-seed digests did not differ: $digests" >&2
    exit 1
  fi

  # Resuming a finished sweep must be a no-op (nothing recomputed).
  resume_out=$(./target/release/sweep resume --dir "$SWEEP_DIR")
  printf '%s\n' "$resume_out"
  if ! printf '%s\n' "$resume_out" | grep -q "ran 0 job(s)"; then
    echo "sweep gate: resume on a finished manifest was not a no-op" >&2
    exit 1
  fi

  # The aggregate report must show nonzero cross-seed variance in at
  # least one Table 5 count cell.
  report_out=$(./target/release/sweep report --dir "$SWEEP_DIR")
  printf '%s\n' "$report_out" | tail -n 3
  if ! printf '%s\n' "$report_out" | grep -q "cross-seed variance: [1-9]"; then
    echo "sweep gate: no cross-seed variance in the Table 5 count cells" >&2
    exit 1
  fi
  # Every characterized job also wrote a detection-latency report, and the
  # aggregate renders the latency table from them.
  for seed in 1 2; do
    if [ ! -f "$SWEEP_DIR/latency_smoke_s$seed.json" ]; then
      echo "sweep gate: missing latency_smoke_s$seed.json (stream not attached?)" >&2
      exit 1
    fi
  done
  if ! printf '%s\n' "$report_out" | grep -q "Detection latency"; then
    echo "sweep gate: aggregate report lacks the detection-latency table" >&2
    exit 1
  fi
  # A job's log records its whole run; it must replay offline.
  if ! ./target/release/stream-replay "$SWEEP_DIR/log_smoke_s1.jsonl" > /dev/null; then
    echo "sweep gate: stream-replay failed on the whole-run log log_smoke_s1.jsonl" >&2
    exit 1
  fi
  echo "sweep gate: OK (2 distinct digests, no-op resume, nonzero variance, latency table, checkpoints < 10 MB, whole-run log replays)"
}

gate_perf_baseline() {
  cargo run --release -p footsteps-bench --bin perf_baseline -- --json --threads 1 7 "$FRESH_FILE"
  cargo run --release -p footsteps-bench --bin perf_baseline -- --json --threads 8 7 "$FRESH_T8_FILE"
}

gate_perf() {
  # Fail if fresh throughput drops below TOLERANCE x the committed baseline.
  TOLERANCE="${FOOTSTEPS_PERF_TOLERANCE:-0.85}"
  baseline=$(extract_days_per_sec "$BASELINE_FILE")
  fresh=$(extract_days_per_sec "$FRESH_FILE")
  if [ -z "$baseline" ] || [ -z "$fresh" ]; then
    echo "perf gate: could not extract days_per_sec (baseline='$baseline', fresh='$fresh')" >&2
    exit 1
  fi
  check_positive_number "$BASELINE_FILE" "$baseline"
  check_positive_number "$FRESH_FILE" "$fresh"
  echo "baseline: $baseline days/sec ($BASELINE_FILE)"
  echo "fresh:    $fresh days/sec ($FRESH_FILE)"
  if ! awk -v f="$fresh" -v b="$baseline" -v t="$TOLERANCE" \
      'BEGIN { exit !(f >= t * b) }'; then
    echo "perf gate: FAIL — $fresh < $TOLERANCE x $baseline days/sec" >&2
    exit 1
  fi
  echo "perf gate: OK ($fresh >= $TOLERANCE x $baseline days/sec)"
}

gate_thread() {
  # Results must be byte-identical for any FOOTSTEPS_THREADS: the
  # 8-thread results digest must equal the 1-thread digest.
  digest_t1=$(extract_results_digest "$FRESH_FILE")
  digest_t8=$(extract_results_digest "$FRESH_T8_FILE")
  if [ -z "$digest_t1" ] || [ -z "$digest_t8" ]; then
    echo "thread gate: could not extract results_digest (t1='$digest_t1', t8='$digest_t8')" >&2
    exit 1
  fi
  if [ "$digest_t1" != "$digest_t8" ]; then
    echo "thread gate: FAIL — digest differs across thread counts ($digest_t1 vs $digest_t8)" >&2
    exit 1
  fi

  # Throughput: on a multicore host, 8 workers must not be slower than 1.
  # On a single-core host 8 threads purely oversubscribe the CPU (spawn
  # overhead, no parallelism), so the comparison measures nothing about
  # regressions — the 1-thread baseline gate above covers those; here only
  # the digest equality is enforced.
  fresh=$(extract_days_per_sec "$FRESH_FILE")
  fresh_t8=$(extract_days_per_sec "$FRESH_T8_FILE")
  check_positive_number "$FRESH_FILE" "$fresh"
  check_positive_number "$FRESH_T8_FILE" "$fresh_t8"
  cpus=$(nproc 2>/dev/null || echo 1)
  if [ "$cpus" -ge 2 ]; then
    if ! awk -v t8="$fresh_t8" -v t1="$fresh" 'BEGIN { exit !(t8 >= t1) }'; then
      echo "thread gate: FAIL — 8T $fresh_t8 < 1T $fresh days/sec on $cpus cpus" >&2
      exit 1
    fi
  else
    echo "thread gate: single-core host — skipping the 8T >= 1T throughput floor"
  fi
  echo "thread gate: OK (digest $digest_t1 invariant; 8T $fresh_t8 vs 1T $fresh days/sec on $cpus cpu(s))"
}

gate_trace() {
  # Run the smoke scenario with tracing fully on: span-event collection
  # and Chrome-trace export (FOOTSTEPS_TRACE_OUT). The exported trace must
  # pass the schema check, and the results digest must equal the untraced
  # 1-thread digest — tracing is observability-only.
  FOOTSTEPS_TRACE_OUT="$TRACE_FILE" \
    cargo run --release -p footsteps-bench --bin perf_baseline -- --json --threads 1 7 "$TRACED_PERF"
  ./target/release/obs-report --check-trace "$TRACE_FILE"
  digest_t1=$(extract_results_digest "$FRESH_FILE")
  digest_traced=$(extract_results_digest "$TRACED_PERF")
  if [ -z "$digest_traced" ] || [ "$digest_traced" != "$digest_t1" ]; then
    echo "trace gate: FAIL — digest with tracing on ($digest_traced) != untraced digest ($digest_t1)" >&2
    exit 1
  fi

  # Span-*structure* parity: names/nesting/lane kinds/region counts are a
  # pure function of the serial control flow, so the structure digest in the
  # perf reports must be identical for 1 and 8 worker threads.
  struct_t1=$(extract_structure_digest "$FRESH_FILE")
  struct_t8=$(extract_structure_digest "$FRESH_T8_FILE")
  if [ -z "$struct_t1" ] || [ -z "$struct_t8" ]; then
    echo "trace gate: could not extract structure_digest (t1='$struct_t1', t8='$struct_t8')" >&2
    exit 1
  fi
  if [ "$struct_t1" != "$struct_t8" ]; then
    echo "trace gate: FAIL — span structure differs across thread counts ($struct_t1 vs $struct_t8)" >&2
    exit 1
  fi
  echo "trace gate: OK (valid chrome trace, digest $digest_traced invariant, structure $struct_t1 parity)"
}

gate_obs() {
  # Tracing fully on must not cost more than (1 - tolerance) of engine
  # throughput: traced days/sec >= tolerance x untraced days/sec on the
  # same host, same scenario, back to back.
  OBS_TOLERANCE="${FOOTSTEPS_OBS_TOLERANCE:-0.90}"
  fresh=$(extract_days_per_sec "$FRESH_FILE")
  fresh_traced=$(extract_days_per_sec "$TRACED_PERF")
  check_positive_number "$FRESH_FILE" "$fresh"
  check_positive_number "$TRACED_PERF" "$fresh_traced"
  if ! awk -v on="$fresh_traced" -v off="$fresh" -v t="$OBS_TOLERANCE" \
      'BEGIN { exit !(on >= t * off) }'; then
    echo "obs overhead gate: FAIL — traced $fresh_traced < $OBS_TOLERANCE x untraced $fresh days/sec" >&2
    exit 1
  fi
  echo "obs overhead gate: OK (traced $fresh_traced >= $OBS_TOLERANCE x untraced $fresh days/sec)"
}

gate_stream() {
  # Record the smoke scenario's platform event log while detecting online
  # (perf_baseline --stream runs the detector with the recorder off then
  # on, and itself asserts those two digests match), then replay the log
  # offline: stream-replay must recompute the identical verdict digest
  # from the file alone, and the versioned envelope must round-trip.
  STREAM_LOG="$CI_TMP/footsteps_stream.ci.jsonl"
  STREAM_PERF="$CI_TMP/BENCH_stream.ci.json"
  cargo run --release -p footsteps-bench --bin perf_baseline -- --json --stream "$STREAM_LOG" 7 "$STREAM_PERF"
  inline_digest=$(sed -n 's/.*"verdict_digest": *"\(0x[0-9a-f]*\)".*/\1/p' "$STREAM_PERF" | head -n 1)
  if [ -z "$inline_digest" ]; then
    echo "stream gate: could not extract verdict_digest from $STREAM_PERF" >&2
    exit 1
  fi
  replay_out=$(./target/release/stream-replay "$STREAM_LOG")
  replay_digest=$(printf '%s\n' "$replay_out" | sed -n 's/^verdict_digest: *\(0x[0-9a-f]*\).*/\1/p')
  if [ -z "$replay_digest" ] || [ "$replay_digest" != "$inline_digest" ]; then
    echo "stream gate: FAIL — replayed digest '$replay_digest' != inline '$inline_digest'" >&2
    exit 1
  fi
  # The verdict snapshot's own version; the log envelope's version is
  # enforced by EventLogReader::open, so a replay that got this far read it.
  if ! printf '%s\n' "$replay_out" | grep -q "^schema_version: 1$"; then
    echo "stream gate: FAIL — replayed verdict snapshot is not schema v1" >&2
    printf '%s\n' "$replay_out" >&2
    exit 1
  fi
  echo "stream gate: OK (verdict digest $replay_digest reproduced from the recorded log)"
}

# Run one gate in its own errexit subshell and record its verdict. The
# subshell must not run under `if`, `!`, `&&` or `||`: bash ignores
# `set -e` inside it there.
FAILED=()
run_gate() {
  local title=$1 fn=$2 rc
  echo "== $title =="
  ( set -e; "$fn" )
  rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "verdict: $title: OK"
  else
    echo "verdict: $title: FAIL (exit $rc)"
    FAILED+=("$title (exit $rc)")
  fi
}

run_gate "build (release, -Dwarnings)" gate_build
run_gate "lint (footsteps-lint determinism & safety pass)" gate_lint
run_gate "test" gate_test
run_gate "vendored crates' unit tests" gate_vendored
run_gate "footbench's own tests" gate_footbench
run_gate "sweep smoke (2-seed replication, checkpoint/resume)" gate_sweep
run_gate "perf baseline (smoke scenario, 1 and 8 worker threads)" gate_perf_baseline
run_gate "perf regression gate" gate_perf
run_gate "multi-thread gate (thread-invariant digest + throughput)" gate_thread
run_gate "trace smoke gate (chrome-trace export + span-structure parity)" gate_trace
run_gate "obs overhead gate (tracing on vs off)" gate_obs
run_gate "stream gate (event-log record, offline replay, verdict parity)" gate_stream

if [ "${#FAILED[@]}" -gt 0 ]; then
  echo "CI FAILED: ${#FAILED[@]} gate(s)"
  for gate in "${FAILED[@]}"; do
    echo "failed: $gate"
  done
  exit 1
fi
echo "CI OK"
