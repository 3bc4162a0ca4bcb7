#!/usr/bin/env bash
# Builds the harness from source inside the current checkout and runs it.
# Everything the Go toolchain writes (build cache, temp files, the binary)
# stays under .bench_build/ of the directory this is started from, so a run
# reads and writes only inside its checkout. Arguments pass through:
#
#   bash bench/run.sh --workload torus_dense --seed 1 --seconds 16 --trace 0
#   bash bench/run.sh run -seed 1
#   bash bench/run.sh compare bench/out/a.json bench/out/b.json
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false

go build -o "$build/rbcbench" ./bench
exec "$build/rbcbench" "$@"
