#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 25 --trace 0
#
# Run from the root of the repository. The build cache, the binary, the
# set-up files and the traces all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
# Telemetry off: the go command would otherwise start a detached child
# process to process its counters.
echo off > "$out/config/go/telemetry/mode"
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out" "$@"
