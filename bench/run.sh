#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Every
# file it writes — the Go build cache, the binaries, journals and logs
# of a run — lives under .bench_build in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/basicskv ]; then
	echo "bench: $root is not the distbasics repository: nothing to build the daemons from" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
