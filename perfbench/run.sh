#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload threshold-hh --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, cache and trace stays
# under .bench_build/ in that directory; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

# The revision is recorded only when the root is itself a git work tree.
rev=none
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
  rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -revision "$rev" "$@"
