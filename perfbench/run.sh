#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload localize_sparse --seed 1 --seconds 5 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, trained demo bundles, throwaway WAL) stays
# under .bench_build/perfbench in the current directory.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build/perfbench"
mkdir -p "$work/gocache" "$work/tmp" "$work/home"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	HOME="$work/home" XDG_CONFIG_HOME="$work/home" GOPATH="$work/home/go" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" -work "$work" "$@"
