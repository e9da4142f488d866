#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs one
# workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload bridge-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build: the
# Go build cache, the binary, the workload's data directories and the
# span file of a traced run.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS="" GOTOOLCHAIN=local CGO_ENABLED=0

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --scratch "$build" "$@"
