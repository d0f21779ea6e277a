#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# the arguments given, e.g.
#
#   bash perfbench/run.sh --workload fleet-recycle --seed 20190624 --seconds 10 --trace 0
#
# Run it from the repository root. Build products, the Go build cache and
# run scratch space all stay under .bench_build in that directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
