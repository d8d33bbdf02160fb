#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout (once;
# later runs reuse the binary and the Go build cache kept there) and runs it
# from the checkout's root with the given arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/dualsimbench" .) >&2
cd "$root"
exec "$build/dualsimbench" "$@"
