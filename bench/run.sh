#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run write (Go build cache, binary, CPU profile) stays in
# .bench_build/ at the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
[ -f "$root/go.mod" ] || { echo "bench: $root/go.mod not found: run from a checkout of the repo" >&2; exit 2; }
mkdir -p "$out"
# The Go tool keeps its caches, its configuration and pprof's scratch files
# under $out, reads no user configuration and downloads nothing.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOPROXY=off GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out"
(cd "$here" && go build -o "$out/heron-bench" .)
exec "$out/heron-bench" -tmp "$out" "$@"
