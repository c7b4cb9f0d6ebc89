#!/usr/bin/env bash
# Builds the HyperEar service benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload locate-saturated --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, temp files, WAL directories, span dumps) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a HyperEar checkout (go.mod, internal/server, perfbench/ expected)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local
# The go command keeps telemetry counters and its env file under the user
# config dir; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
