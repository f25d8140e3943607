#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload dumbbell-load --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --compare results/base results/change
#
# Run it from the root of the checkout. Everything the build and the run
# write goes under $CARGO_TARGET_DIR (default .bench_build): the Go build
# cache, the binary and the traced run's span files.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C perfbench build -o "$out/perfbench" .
export PERFBENCH_OUT="$out"
exec "$out/perfbench" "$@"
