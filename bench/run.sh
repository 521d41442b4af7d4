#!/usr/bin/env bash
# Builds the performance ledger from the sources in the current directory
# (the repository root) and runs it with the given arguments, e.g.
#
#   bash bench/run.sh run --workload fuzz-deep --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare parent/ change/
#
# Every file the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, temporary files, toolchain
# telemetry and the benchmark's own checkpoints and traces.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	BENCH_WORKDIR="$build"

go -C bench build -o "$build/cftcg-bench" .
exec "$build/cftcg-bench" "$@"
