#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Call it
# from the repository root:
#
#   bash perfbench/run.sh --workload paper-loop --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory. The build needs the
# repository's root module next to this directory; without it the build
# fails and so does the run.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
# The go command keeps its configuration and telemetry counters under
# the user config directory; point that into the build directory too.
export XDG_CONFIG_HOME=$out/config
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
