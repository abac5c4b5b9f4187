#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root, e.g.
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, binary) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out"
export GOCACHE=$out/go-cache GOPATH=$out/go-path GOMODCACHE=$out/go-path/pkg/mod
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$out/simdram-bench" .
exec "$out/simdram-bench" "$@"
