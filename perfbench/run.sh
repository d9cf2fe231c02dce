#!/usr/bin/env bash
# Builds the benchmark and the opportunetd daemon from this checkout's
# sources into .bench_build/, then runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 10 --trace 0
#
# Workloads: study, serve, ingest, suite (see perfbench/README.md). The
# last line of standard output is the result as one JSON object.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
# Keep the go command's caches and settings inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(
	cd perfbench
	go build -o "$out/perfbench" .
	go build -o "$out/opportunetd" opportunet/cmd/opportunetd
)
exec "$out/perfbench" -daemon "$out/opportunetd" -dir "$out/work" "$@"
