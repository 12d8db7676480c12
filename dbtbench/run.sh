#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root; every build product stays under
# .bench_build in the current directory.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local
(cd "$root/dbtbench" && go build -o "$out/dbtbench" .)
exec "$out/dbtbench" "$@"
