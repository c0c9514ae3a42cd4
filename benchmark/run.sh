#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload pingpong_small --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the toolchain's own config and
# telemetry files, and the binary stay inside the checkout under
# .bench_build; no module is ever downloaded.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/home"
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C "$root/benchmark" build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
