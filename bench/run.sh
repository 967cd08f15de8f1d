#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a checkout:
#
#   bash bench/run.sh --workload city_frames --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build and module caches, temporary files, the binary
# and any span files.
# Outside a full checkout the build fails, and so does this script.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$(dirname "$0")" build -o "$build/bench" .
exec "$build/bench" "$@"
