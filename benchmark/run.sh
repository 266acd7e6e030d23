#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. The benchmark is a Go module of its own (benchmark/go.mod)
# that builds against the checkout around it. Everything the Go toolchain
# writes (build cache, work directory, its own configuration) is kept under
# .bench_build/ in the checkout, so a run reads and writes nothing outside
# it. The first build in a fresh checkout compiles the standard library too
# (about a minute on two cores); later runs only relink when the source
# changed.
#
#   bash benchmark/run.sh --workload run_paths --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
(cd benchmark && HOME="$build/home" GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off \
	go build -o "$build/chopper-benchmark" .)
exec "$build/chopper-benchmark" "$@"
