#!/usr/bin/env bash
# Builds the benchmark, beepd and beepworker from the checkout it runs
# in, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload coldstart --seed 1 --seconds 25 --trace 0
#
# Build outputs, caches, temporary directories and traces all stay under
# .bench_build/ in the checkout.
set -euo pipefail

out=$PWD/.bench_build
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
mkdir -p "$out/bin" "$out/tmp"

go build -o "$out/bin/beepd" ./cmd/beepd
go build -o "$out/bin/beepworker" ./cmd/beepworker
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -tmp "$out/tmp" "$@"
