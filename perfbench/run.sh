#!/usr/bin/env bash
# Builds perfbench from this checkout's source and runs it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The build cache and binary stay in
# .bench_build/ and traced-run artifacts go to .bench_out/, both inside
# the checkout. It fails without printing a result when the repository's
# source is not beside the benchmark.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
