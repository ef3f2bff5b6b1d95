#!/usr/bin/env bash
# Builds the IMCF benchmark from source and runs it. Run from the root of
# a checkout:
#
#   bash _benchmark/run.sh --workload paper-dorms --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout:
# the Go build cache, the binary, scratch state and written traces.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "benchmark: run from the root of an IMCF checkout (no go.mod or internal/ here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOWORK=off
# The Go runtime keeps its default GC settings.
unset GOGC GOMEMLIMIT GODEBUG
(cd "$root/_benchmark" && go build -o "$build/imcfbench" .)
exec "$build/imcfbench" -root "$root" "$@"
