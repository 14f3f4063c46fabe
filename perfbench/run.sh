#!/usr/bin/env bash
# Builds skylined and the benchmark from the sources of the checkout it is
# run in, then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cached-anti --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory: binaries, the Go build cache, result records, Chrome traces
# and the servers' data directories.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on (the default for a fresh HOME) the go command forks a
# detached sidecar process that outlives the build; turn it off so the
# benchmark leaves no process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/skylined" ./cmd/skylined >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -skylined "$out/bin/skylined" -outdir "$out" "$@"
