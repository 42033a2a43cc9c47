#!/usr/bin/env bash
# Builds modelardbd and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ingest-eh --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root (Go's build cache included). Build output goes to
# standard error, so the result stays the last line of standard output.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/runs"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/bin/modelardbd" ./cmd/modelardbd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -daemon "$build/bin/modelardbd" -workdir "$build/runs" "$@"
