#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything it writes stays inside the checkout: the binary and the Go build
# and module caches under .bench_build/, results and traces under bench/out/.
# In a directory without the repository's sources the build fails and this
# script exits non-zero without printing a result.
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$dir")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOWORK=off

# The commit goes into the result's stamp. The driver's checkouts are not git
# repositories; there it reads "unknown".
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && ! git -C "$root" diff --quiet HEAD 2>/dev/null; then
	commit="$commit+dirty"
fi

go build -C "$dir" -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/bench" .
exec "$build/bench" -out "$dir/out" "$@"
