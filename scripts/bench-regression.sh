#!/usr/bin/env bash
# Bench-regression gate: run the gated benchmark suite, show a benchstat
# summary against the committed baseline when available, and fail via
# benchguard if the obs-off hot path or the metrics hot path regressed
# (>10% ns/op on matching hardware, allocs/op and B/op anywhere).
#
#   ./scripts/bench-regression.sh              # gate against BENCH_baseline.json
#   BENCH_COUNT=3 ./scripts/bench-regression.sh
#   BENCH_OUT=/tmp/raw.txt ./scripts/bench-regression.sh
#
# Refreshing the baseline after an intentional perf change:
#
#   go test -run '^$' -bench 'BenchmarkSummaGen|BenchmarkMetricsHotPath' -benchmem -count 6 . > BENCH_baseline.txt
#   go run ./cmd/benchguard -input BENCH_baseline.txt -baseline BENCH_baseline.json -write
set -euo pipefail

cd "$(dirname "$0")/.."

out="${BENCH_OUT:-bench_current.txt}"
count="${BENCH_COUNT:-6}"

echo "bench-regression: running BenchmarkSummaGen + BenchmarkMetricsHotPath (count=$count)..."
go test -run '^$' -bench 'BenchmarkSummaGen|BenchmarkMetricsHotPath' -benchmem -count "$count" . | tee "$out"

if command -v benchstat >/dev/null 2>&1 && [ -f BENCH_baseline.txt ]; then
  echo
  echo "bench-regression: benchstat vs committed baseline (informational):"
  benchstat BENCH_baseline.txt "$out" || true
else
  echo "bench-regression: benchstat unavailable or no BENCH_baseline.txt; skipping summary table"
fi

echo
go run ./cmd/benchguard -input "$out" -baseline BENCH_baseline.json -gate 'BenchmarkSummaGen/obs=off$|BenchmarkMetricsHotPath'
