#!/usr/bin/env bash
# Builds shadowbench from this checkout's source and runs it with the
# given arguments, from the checkout root:
#
#   bash shadowbench/run.sh --workload locate --seed 3 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, campaign stores (removed
# after each campaign) and trace files.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off

# The build goes to stderr so the result stays the last stdout line.
(cd "$here" && go build -o "$build/shadowbench" .) >&2
exec "$build/shadowbench" -workdir "$build" "$@"
