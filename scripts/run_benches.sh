#!/usr/bin/env bash
# Runs the tracked benchmark suite and collects BENCH_*.json into a target
# directory. One entrypoint shared by the baseline-update workflow and the CI
# perf-regression job, so both always run the same op counts and arguments
# (the JSON config fingerprint makes any mismatch a hard checker error).
#
#   scripts/run_benches.sh <build-dir> <output-dir> [--paper-calibration]
#
# Baseline op counts are deliberately reduced from the bench defaults: the
# virtual-time metrics are deterministic at any op count, and 20k measured
# ops keep the full suite to a few minutes. Scale-up runs (SWARM_BENCH_OPS)
# are for humans; they cannot be diffed against these baselines.
#
# Every bench runs even when an earlier one fails, so one crashing bench
# cannot hide the reports of the rest; the script names the failed benches
# and exits non-zero at the end.

set -euo pipefail

BUILD_DIR=${1:?usage: run_benches.sh <build-dir> <output-dir> [--paper-calibration]}
OUT_DIR=${2:?usage: run_benches.sh <build-dir> <output-dir> [--paper-calibration]}
EXTRA_FLAG=${3:-}

export SWARM_BENCH_OPS=${SWARM_BENCH_OPS:-20000}
export SWARM_BENCH_WARMUP=${SWARM_BENCH_WARMUP:-10000}
export SWARM_BENCH_JSON_DIR="$OUT_DIR"
mkdir -p "$OUT_DIR"

BENCHES=(
  bench_fig5_latency_cdf
  bench_fig6_small_cache
  bench_fig7_tput_latency
  bench_fig8_scalability
  bench_fig9_value_size
  bench_fig10_replication
  bench_fig11_failover
  bench_fig12_contention
  bench_fig13_max_buffers
  bench_table2_roundtrips
  bench_table3_resources
  bench_ablations
)

failed=()
run_bench() {
  local bench=$1
  shift
  echo "== $bench $EXTRA_FLAG"
  if ! "$BUILD_DIR/$bench" "$@" > /dev/null; then
    echo "!! $bench $EXTRA_FLAG failed" >&2
    failed+=("$bench")
  fi
}

for b in "${BENCHES[@]}"; do
  # shellcheck disable=SC2086
  run_bench "$b" $EXTRA_FLAG
done

# The event-loop microbenchmark takes positional sizes (callback events,
# coroutine resumes, kv ops); keep them fixed so the fingerprint matches.
# shellcheck disable=SC2086
run_bench bench_event_loop $EXTRA_FLAG 500000 500000 20000

# The rtt-complexity binary emits its deterministic probe JSON up front;
# the google-benchmark wall-clock fits are host-side only, so skip them here
# (the filter matches nothing).
# shellcheck disable=SC2086
run_bench bench_rtt_complexity $EXTRA_FLAG --benchmark_filter='^$'

echo "wrote $(find "$OUT_DIR" -maxdepth 1 -name 'BENCH_*.json' | wc -l) reports to $OUT_DIR"
if [ "${#failed[@]}" -gt 0 ]; then
  echo "failed benches $EXTRA_FLAG: ${failed[*]}" >&2
  exit 1
fi
