#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout's
# root. Everything the build writes (the Go build cache included) stays
# under .bench_build/, so nothing outside the checkout is touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$here" -o "$build/kwsc-bench" .
cd "$root"
exec "$build/kwsc-bench" "$@"
