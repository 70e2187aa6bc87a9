#!/bin/sh
# Build the benchmark from source into .bench_build/ (Go build cache
# included, so nothing is written outside the checkout) and run it with
# the caller's arguments. Run from the root of a checkout:
#
#	sh bench/run.sh --workload tomo-bgtl64 --seed 1 --seconds 12 --trace 0
set -e
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's telemetry counters and its
# env file lookup inside the checkout as well.
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local
go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" "$@"
