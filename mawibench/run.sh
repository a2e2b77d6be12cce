#!/usr/bin/env bash
# Builds the benchmark and the mawilabd daemon from the checkout's sources,
# then runs the benchmark with the given arguments, for example:
#
#   bash mawibench/run.sh --workload batch-days --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the daemon's store.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/mawibench" && go build -o "$out/bin/" . mawilab/cmd/mawilabd) >&2
exec "$out/bin/mawibench" --daemon "$out/bin/mawilabd" --workdir "$out" "$@"
