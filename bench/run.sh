#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash bench/run.sh                                  every workload, both passes, report in bench/out/
#   bash bench/run.sh -agree 2                         do two sets of runs agree within BENCHMARK.json's bounds?
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1     one run; last line of stdout is the JSON result
#
# Everything the build writes stays under .bench_build/ at the root of the
# checkout: the Go build cache, the module cache (empty: the benchmark needs
# the standard library and this repository only), the toolchain's own config
# directory, and the binary.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$build/summagen-bench" .)
exec "$build/summagen-bench" -dir "$here" "$@"
