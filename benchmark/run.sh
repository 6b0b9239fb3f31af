#!/usr/bin/env bash
# Builds mtmlf-serve and the benchmark from source, then runs the
# benchmark with the given arguments. Run it from any directory:
#
#   bash benchmark/run.sh --workload serve-f64 --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh --workload all --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh compare --base results/parent --head results/change
#
# Everything it builds, caches or writes lands in .bench_build/ at the
# repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/bin/mtmlf-serve" ./cmd/mtmlf-serve >&2
go -C benchmark build -o "$out/bin/mtmlf-bench" . >&2
exec "$out/bin/mtmlf-bench" "$@"
