#!/usr/bin/env bash
# Entry point of the benchmark: `bash bench/run.sh [flags]` from the root of
# a checkout. It keeps the Go toolchain's cache and temporary files inside
# the checkout (.bench_build/), builds the benchmark, and hands over to it;
# the benchmark builds ./cmd/actypd of the checkout itself.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# XDG_CONFIG_HOME: where the go command keeps its telemetry counters.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/actyp-e2e" .)
cd "$root"
exec "$build/bin/actyp-e2e" "$@"
