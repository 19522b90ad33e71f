#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#   bash e2ebench/run.sh --workload adhoc --seed 1 --seconds 15 --trace 0
# Every build artefact, Go cache, temporary file and trace file stays under
# .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
