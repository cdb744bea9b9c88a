#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ under the current directory
# (the repository root) and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig8-local --seed 1 --seconds 60 --trace 0
#
# The Go build cache, module cache, temporary files and tool configuration
# all live under .bench_build/, and no module is fetched: perfbench imports
# only the repository's own packages and the standard library.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
