#!/usr/bin/env bash
# Builds opimd and the benchmark from the checkout it is run in, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload opimc --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout: the Go build cache, the
# binaries, daemon logs, checkpoint directories and span traces.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root" && go build -o "$out/bin/opimd" ./cmd/opimd)
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/bin/perfbench" -opimd "$out/bin/opimd" -work "$out" -commit "$commit" "$@"
