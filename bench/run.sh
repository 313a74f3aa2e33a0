#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root. Everything it writes stays under .bench_build/ and
# bench/out/: the Go build cache, the binary, the stores.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/adcache-bench" .) >&2
cd "$root"
exec "$build/adcache-bench" "$@"
