#!/usr/bin/env bash
# Builds the benchmark from source and runs it; all arguments pass through
# (see pdperf/README.md). Run from the repository root. Every file the
# build and the run write stays under .bench_build/ in the current
# directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/pdperf" && go build -o "$out/pdperf" .) >&2
exec "$out/pdperf" -dir "$out/data" "$@"
