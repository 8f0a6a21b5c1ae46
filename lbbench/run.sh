#!/usr/bin/env bash
# Builds the lbbench harness and runs it against the repository in the
# working directory. Every build output and scratch file goes under
# .bench_build/ there (the Go build cache included); nothing is written
# elsewhere.
#
#   bash lbbench/run.sh --workload fig8-default --seed 1 --seconds 20 --trace 0
#   bash lbbench/run.sh -seed 1 -reps 5 -out results.json
#   bash lbbench/run.sh -compare base.json head.json
set -eu
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
    GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$build/lbbench" .)
exec "$build/lbbench" -repo "$root" "$@"
