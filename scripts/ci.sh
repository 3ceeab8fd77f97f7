#!/usr/bin/env bash
# Offline CI gate: release build, clippy, full test suite (the determinism lint
# runs inside it as `workspace_is_lint_clean`), the sweep gates,
# the engine perf baseline with its perf-regression, trace and
# obs-overhead checks, and the stream gate, with warnings denied. Timing
# gates compare medians of repeated runs. Uses only vendored dependencies — safe
# to run without network access.
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

# Runs per side of the sweep-worker gate. A timing gate compares medians
# (alternating between its two sides where it has two), so one noisy run
# on a shared host cannot flip its verdict.
K=5
# Alternating untraced/traced smoke(7) pairs of the perf baseline. One
# such run lasts only 0.15-0.29 s and swings by +-20% on a shared host, so
# the perf, trace and obs-overhead gates read five times as many runs as
# the sweep-worker gate.
PAIRS=25
# The perf gate's floor, as a fraction of the committed baseline's
# days/sec, and the obs-overhead gate's floor on the median per-pair
# traced/untraced ratio.
PERF_TOLERANCE=0.85
OBS_TOLERANCE=0.90

# Reports shared between steps.
BASELINE_FILE="BENCH_daily_engine.baseline.json"
# The perf baseline step's PAIRS alternating pairs of smoke(7) reports:
# untraced_<i>.json, traced_<i>.json and the traced run's trace_<i>.json.
PERF_DIR="$CI_TMP/perf"

extract_days_per_sec() {
  # Accepts plain decimals and scientific notation (1234.5, 1.2345e3);
  # the old [0-9.]* pattern silently truncated "1.2e3" to "1.2".
  sed -n 's/.*"days_per_sec": *\(-\{0,1\}[0-9][0-9]*\(\.[0-9][0-9]*\)\{0,1\}\([eE][+-]\{0,1\}[0-9][0-9]*\)\{0,1\}\).*/\1/p' "$1" | head -n 1
}

# The hex digest under key $1 (results_digest, structure_digest) in file $2.
extract_digest() {
  sed -n "s/.*\"$1\": *\"\(0x[0-9a-f]*\)\".*/\1/p" "$2" | head -n 1
}

# A throughput must be a finite positive number, or the gate is meaningless.
check_positive_number() {
  awk -v v="$2" 'BEGIN { exit !(v + 0 > 0) }' || {
    echo "unparseable days_per_sec in $1 (got '$2')" >&2
    exit 1
  }
}

# days_per_sec of each report named, one per line. Fails (inside a
# command substitution, through its exit status) on a missing or
# non-positive value.
days_per_sec_of() {
  local f v
  for f in "$@"; do
    v=$(extract_days_per_sec "$f")
    check_positive_number "$f" "$v"
    echo "$v"
  done
}

# The median of the numbers given as arguments.
median() {
  printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 }
    END { if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

# One side of a timing gate: "<label>: median M (min LO, max HI, N runs)".
print_side() {
  local label=$1
  shift
  local sorted
  sorted=$(printf '%s\n' "$@" | sort -g)
  echo "$label: median $(median "$@") (min $(head -n 1 <<< "$sorted"), max $(tail -n 1 <<< "$sorted"), $# runs)"
}

gate_build() {
  cargo build --release
}

gate_clippy() {
  # Every target of every member, the vendored crates included, with
  # clippy's warnings denied.
  cargo clippy --offline --all-targets -- -D warnings
}

gate_test() {
  # The vendored work-alikes are path dependencies inside the workspace
  # directory, so Cargo makes them members and this runs their unit tests
  # and doctests too.
  cargo test -q
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
  # resume path is a no-op on a finished manifest, that a job missing a
  # per-seed file runs again to the same bytes, and that the aggregate
  # report shows real cross-seed variance.
  mkdir "$SWEEP_DIR"
  ./target/release/sweep run --dir "$SWEEP_DIR" --seeds 2 --workers 2 --scenario smoke

  # A job resumes by running again, so a sweep writes no checkpoint.
  for ckpt in "$SWEEP_DIR"/ckpt_*; do
    if [ -e "$ckpt" ]; then
      echo "sweep gate: the sweep wrote a checkpoint, $(basename "$ckpt")" >&2
      exit 1
    fi
  done
  # The wire size of each job's event log.
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

  # A done job without its results file runs again from the start and
  # writes the same results, metrics, latency and log bytes.
  kept="$CI_TMP/seed2"
  mkdir "$kept"
  for f in results_smoke_s2.json metrics_smoke_s2.json latency_smoke_s2.json log_smoke_s2.jsonl; do
    cp "$SWEEP_DIR/$f" "$kept/$f"
  done
  rm "$SWEEP_DIR/results_smoke_s2.json"
  resume_out=$(./target/release/sweep resume --dir "$SWEEP_DIR")
  printf '%s\n' "$resume_out"
  if ! printf '%s\n' "$resume_out" | grep -q "ran 1 job(s)"; then
    echo "sweep gate: resume did not run the job that lost its results file" >&2
    exit 1
  fi
  for f in results_smoke_s2.json metrics_smoke_s2.json latency_smoke_s2.json log_smoke_s2.jsonl; do
    if ! cmp "$kept/$f" "$SWEEP_DIR/$f"; then
      echo "sweep gate: the re-run job wrote another $f" >&2
      exit 1
    fi
  done

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
  echo "sweep gate: OK (2 distinct digests, no checkpoint, no-op resume, re-run job byte-identical, nonzero variance, latency table, whole-run log replays)"
}

gate_sweep_workers() {
  # A study runs on one thread; the parallelism that pays is the sweep's
  # job pool. K alternating pairs of a 4-seed smoke sweep at --workers 1
  # and --workers 2, each in a fresh directory: all 2K runs must give the
  # same per-seed digests, and on a multicore host the 2-worker median
  # wall time must not exceed the 1-worker median.
  ref=""
  wall_1=()
  wall_2=()
  for i in $(seq 1 "$K"); do
    for workers in 1 2; do
      dir="$CI_TMP/sweep_w${workers}_$i"
      start_ns=$(date +%s%N)
      FOOTSTEPS_QUIET=1 ./target/release/sweep run --dir "$dir" --seeds 4 --workers "$workers" \
        --scenario smoke > /dev/null
      ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
      digests=$(sed -n 's/.*"digest": \([0-9][0-9]*\).*/\1/p' "$dir/manifest.json" | paste -sd ' ' -)
      rm -rf "$dir"
      if [ "$(wc -w <<< "$digests")" -ne 4 ]; then
        echo "sweep-worker gate: FAIL — pair $i, $workers worker(s): expected 4 per-seed digests, got: $digests" >&2
        exit 1
      fi
      if [ -z "$ref" ]; then
        ref=$digests
      elif [ "$digests" != "$ref" ]; then
        echo "sweep-worker gate: FAIL — pair $i, $workers worker(s): digests $digests != $ref" >&2
        exit 1
      fi
      if [ "$workers" -eq 1 ]; then wall_1+=("$ms"); else wall_2+=("$ms"); fi
    done
  done
  echo "per-seed digests (all $((2 * K)) runs): $ref"
  print_side "1 worker, wall ms" "${wall_1[@]}"
  print_side "2 workers, wall ms" "${wall_2[@]}"
  median_1=$(median "${wall_1[@]}")
  median_2=$(median "${wall_2[@]}")
  cpus=$(nproc 2>/dev/null || echo 1)
  if [ "$cpus" -ge 2 ]; then
    if ! awk -v two="$median_2" -v one="$median_1" 'BEGIN { exit !(two <= one) }'; then
      echo "sweep-worker gate: FAIL — 2-worker median ${median_2} ms > 1-worker median ${median_1} ms on $cpus cpus" >&2
      exit 1
    fi
  else
    echo "sweep-worker gate: single-core host — skipping the 2-worker <= 1-worker floor"
  fi
  echo "sweep-worker gate: OK (identical per-seed digests; 2 workers ${median_2} ms vs 1 worker ${median_1} ms median on $cpus cpu(s))"
}

gate_perf_baseline() {
  # PAIRS alternating pairs of smoke(7) runs: untraced, then traced with
  # span-event collection and Chrome-trace export on (FOOTSTEPS_TRACE_OUT),
  # each into a fresh file. The perf, trace and obs-overhead gates read
  # these reports.
  mkdir -p "$PERF_DIR"
  for i in $(seq 1 "$PAIRS"); do
    ./target/release/perf_baseline 7 "$PERF_DIR/untraced_$i.json"
    FOOTSTEPS_TRACE_OUT="$PERF_DIR/trace_$i.json" \
      ./target/release/perf_baseline 7 "$PERF_DIR/traced_$i.json"
  done
}

gate_perf() {
  # Fail if the median fresh throughput of the PAIRS untraced runs drops
  # below PERF_TOLERANCE x the committed baseline.
  baseline=$(days_per_sec_of "$BASELINE_FILE")
  fresh=$(days_per_sec_of "$PERF_DIR"/untraced_*.json)
  if [ "$(wc -w <<< "$fresh")" -ne "$PAIRS" ]; then
    echo "perf gate: expected $PAIRS untraced reports, got: $fresh" >&2
    exit 1
  fi
  echo "baseline: $baseline days/sec ($BASELINE_FILE)"
  print_side "fresh days/sec" $fresh
  fresh_median=$(median $fresh)
  if ! awk -v f="$fresh_median" -v b="$baseline" -v t="$PERF_TOLERANCE" \
      'BEGIN { exit !(f >= t * b) }'; then
    echo "perf gate: FAIL — median $fresh_median < $PERF_TOLERANCE x $baseline days/sec" >&2
    exit 1
  fi
  echo "perf gate: OK (median $fresh_median >= $PERF_TOLERANCE x $baseline days/sec)"
}

gate_trace() {
  # Every traced run's exported Chrome trace must pass the schema check,
  # and its results digest and span-structure digest must equal its
  # untraced partner's: tracing is observability-only, and the structure
  # (names, nesting, lane kinds, region counts) is a pure function of the
  # control flow.
  for i in $(seq 1 "$PAIRS"); do
    ./target/release/obs-report --check-trace "$PERF_DIR/trace_$i.json"
    for key in results_digest structure_digest; do
      traced=$(extract_digest "$key" "$PERF_DIR/traced_$i.json")
      untraced=$(extract_digest "$key" "$PERF_DIR/untraced_$i.json")
      if [ -z "$traced" ] || [ "$traced" != "$untraced" ]; then
        echo "trace gate: FAIL — pair $i: traced $key '$traced' != untraced '$untraced'" >&2
        exit 1
      fi
    done
  done
  digest=$(extract_digest results_digest "$PERF_DIR/traced_1.json")
  structure=$(extract_digest structure_digest "$PERF_DIR/traced_1.json")
  echo "trace gate: OK ($PAIRS valid chrome traces; traced = untraced results digest $digest, structure digest $structure)"
}

gate_obs() {
  # Tracing fully on must not cost more than (1 - OBS_TOLERANCE) of
  # engine throughput: over the PAIRS alternating pairs, the median of the
  # per-pair traced/untraced days/sec ratios must be >= OBS_TOLERANCE.
  # The two runs of a pair are back to back, so the host's drift over the
  # step cancels in their ratio; it does not cancel between the two sides'
  # medians, which may come from runs seconds apart.
  untraced=()
  traced=()
  ratios=()
  for i in $(seq 1 "$PAIRS"); do
    off=$(days_per_sec_of "$PERF_DIR/untraced_$i.json")
    on=$(days_per_sec_of "$PERF_DIR/traced_$i.json")
    untraced+=("$off")
    traced+=("$on")
    ratios+=("$(awk -v on="$on" -v off="$off" 'BEGIN { print on / off }')")
  done
  print_side "untraced days/sec" "${untraced[@]}"
  print_side "traced days/sec" "${traced[@]}"
  print_side "traced/untraced ratio per pair" "${ratios[@]}"
  ratio=$(median "${ratios[@]}")
  if ! awk -v r="$ratio" -v t="$OBS_TOLERANCE" 'BEGIN { exit !(r >= t) }'; then
    echo "obs overhead gate: FAIL — median traced/untraced ratio $ratio < $OBS_TOLERANCE" >&2
    exit 1
  fi
  echo "obs overhead gate: OK (median traced/untraced ratio $ratio >= $OBS_TOLERANCE)"
}

gate_stream() {
  # Record the smoke scenario's platform event log while detecting online
  # (perf_baseline --stream runs the detector with the recorder off then
  # on, and itself asserts those two digests match), then replay the log
  # offline: stream-replay must recompute the identical verdict digest
  # from the file alone, and the versioned envelope must round-trip. A
  # copy with one row repeated, and one with a map key repeated, must be
  # refused.
  STREAM_LOG="$CI_TMP/footsteps_stream.ci.jsonl"
  STREAM_PERF="$CI_TMP/BENCH_stream.ci.json"
  ./target/release/perf_baseline --stream "$STREAM_LOG" 7 "$STREAM_PERF"
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
  # Each tampered copy edits the first day of the calibration window and
  # must be refused with its line number (exit 1), not replayed into other
  # verdicts. Line 1 is the header, so day D is line D + 2.
  calibration_start=$(sed -n '1s/.*"calibration_start":\([0-9]*\).*/\1/p' "$STREAM_LOG")
  tamper_line=$((calibration_start + 2))
  # $1 names the copy; $2 is the sed command applied to the tamper line.
  refuse_tampered() {
    local copy="$CI_TMP/footsteps_stream.$1.ci.jsonl" err="$CI_TMP/footsteps_stream.$1.ci.err"
    local rc=0
    sed "${tamper_line}$2" "$STREAM_LOG" > "$copy"
    if cmp -s "$STREAM_LOG" "$copy"; then
      echo "stream gate: FAIL — line $tamper_line has nothing to edit for $1" >&2
      exit 1
    fi
    ./target/release/stream-replay "$copy" > /dev/null 2> "$err" || rc=$?
    if [ "$rc" -ne 1 ] || ! grep -q "line $tamper_line: " "$err"; then
      echo "stream gate: FAIL — $1 on line $tamper_line gave exit $rc" >&2
      cat "$err" >&2
      exit 1
    fi
    echo "stream gate: $1 on line $tamper_line refused: $(head -n 1 "$err")"
  }
  # The first outbound row repeated: the reader requires rows in strictly
  # increasing key order.
  refuse_tampered repeated_row 's/"outbound":\[\(\[\[[^]]*\],\[[^]]*\]\]\)/"outbound":[\1,\1/'
  # The first photo_likes entry repeated: a map key may appear only once.
  refuse_tampered repeated_photo_key 's/"photo_likes":{\("[0-9]*":\[[0-9]*,[0-9]*\]\)/"photo_likes":{\1,\1/'
  echo "stream gate: OK (verdict digest $replay_digest reproduced from the recorded log;" \
    "both tampered copies refused)"
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
run_gate "clippy (all targets, -D warnings)" gate_clippy
run_gate "test" gate_test
run_gate "footbench's own tests" gate_footbench
run_gate "sweep smoke (2-seed replication, resume by re-run)" gate_sweep
run_gate "sweep-worker gate (4-seed sweep, 1 vs 2 workers, $K pairs)" gate_sweep_workers
run_gate "perf baseline (smoke scenario, $PAIRS untraced/traced pairs)" gate_perf_baseline
run_gate "perf regression gate (median of $PAIRS runs)" gate_perf
run_gate "trace smoke gate (chrome-trace export + traced/untraced parity)" gate_trace
run_gate "obs overhead gate (tracing on vs off, median ratio of $PAIRS pairs)" gate_obs
run_gate "stream gate (event-log record, offline replay, verdict parity, tamper refusal)" gate_stream

if [ "${#FAILED[@]}" -gt 0 ]; then
  echo "CI FAILED: ${#FAILED[@]} gate(s)"
  for gate in "${FAILED[@]}"; do
    echo "failed: $gate"
  done
  exit 1
fi
echo "CI OK"
