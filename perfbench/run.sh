#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through, e.g.
#   bash perfbench/run.sh --workload bfs-kron --seed 1 --seconds 20 --trace 0
# The build cache and the binary live in .bench_build/ under the root.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod needed)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOWORK=off GOENV=off
go -C perfbench build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" --spans "$out/spans" "$@"
