#!/usr/bin/env bash
# Builds molqd and the benchmark from the checkout in the current directory,
# then runs the benchmark with the given arguments, for example:
#
#   bash perfbench/run.sh --workload node-rw --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/perfbench:
# the Go build cache, temporary files, the binaries and the server logs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/logs"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go build -o "$out/molqd" ./cmd/molqd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --molqd "$out/molqd" --workdir "$out/logs" "$@"
