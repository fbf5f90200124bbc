#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload gauss-sm-p32 --seed 1 --seconds 20 --trace 0
# The Go build cache, the go command's config and telemetry, and the binary
# live in .bench_build/ under the current directory, so the benchmark writes
# nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
