#!/usr/bin/env bash
# Builds the benchmark (perfbench/, a Go module of its own that uses the
# repository's packages through a replace directive) and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload gups-8 --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
