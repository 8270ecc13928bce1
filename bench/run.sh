#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments,
# e.g. sh bench/run.sh --workload sweep --seed 0 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary all stay under .bench_build in the working directory
# (CARGO_TARGET_DIR when set), and the toolchain is pinned to the local
# one with the module proxy off, so a build never reaches the network.
set -eu
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$build/hyve-benchmark" .
exec "$build/hyve-benchmark" "$@"
