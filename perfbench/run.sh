#!/usr/bin/env bash
# Builds tdc and the benchmark from this checkout's sources, then runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-distinct --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files all stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -o "$out/tdc" ./cmd/tdc
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --tdc "$out/tdc" --work "$out/work" "$@"
