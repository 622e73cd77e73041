#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the checkout root) and runs it there. Everything the build and
# the run leave behind — the Go build cache, the binary, durable member
# directories, span files — stays under .bench_build/.
set -euo pipefail
root=$(pwd)
here=$(dirname "$0")
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOWORK=off
# XDG_CONFIG_HOME keeps the go command's own telemetry files in here too.
XDG_CONFIG_HOME="$out/config" go build -C "$here" -o "$out/fsr-benchmark" . >&2
exec "$out/fsr-benchmark" "$@"
