#!/usr/bin/env bash
# Builds portsim's benchmark and the portbench CLI from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload suite --seed 42 --seconds 15 --trace 0
#
# Everything the build and the runs write lands under .bench_build/ in the
# checkout: the Go build cache, temporary files, binaries, stores and traces.
set -euo pipefail

root="$(pwd)"
work="$root/.bench_build/perfbench"
mkdir -p "$work/tmp" "$work/bin"

# The go command's caches, temporary files and telemetry counters stay in
# the checkout too, and it never reaches for the network.
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" GOMODCACHE="$work/gomodcache" \
	GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config" XDG_CACHE_HOME="$work/cache" \
	GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$root/perfbench" && go build -o "$work/bin/perfbench" .)
go build -o "$work/bin/portbench" ./cmd/portbench

exec "$work/bin/perfbench" --root "$root" --work "$work" --portbench "$work/bin/portbench" "$@"
