#!/usr/bin/env bash
# Builds mubench from the checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/mubench/run.sh --workload grid --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the checkout, and nothing is downloaded: the benchmark
# imports only the repository's own packages and the standard library.
# Without the repository around cmd/mubench the build fails, so the
# script exits non-zero without printing a result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C cmd/mubench build -o "$out/mubench" .
exec "$out/mubench" "$@"
