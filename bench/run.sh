#!/usr/bin/env bash
# Builds restperf, the repository's benchmark, and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload fig7-stream -seed 1 -seconds 10 -trace 0
#
# The Go build cache, temporary files and the binaries live under
# .bench_build, so a run reads and writes nothing outside the checkout, and
# the toolchain never reaches for the network.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
go -C bench build -o "$out/restperf" ./restperf
exec "$out/restperf" "$@"
