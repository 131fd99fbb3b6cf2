#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Run it from
# the root of the checkout:
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (binary, Go build cache, module
# cache, temporary files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
