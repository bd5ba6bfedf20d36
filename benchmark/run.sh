#!/usr/bin/env bash
# Builds the benchmark from the source of this checkout and runs it with
# the arguments given. Everything the build writes — the go build cache,
# temporary files, the binary — stays in .bench_build inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: no go.mod and internal/ here: the program under test is not in this checkout" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home/.config/go/telemetry"
# The go command's telemetry is switched off: in its default mode it
# starts a child of its own that outlives the build, and a run must
# leave no process behind.
echo off > "$build/home/.config/go/telemetry/mode"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/gopath" \
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
