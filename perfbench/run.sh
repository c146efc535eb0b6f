#!/usr/bin/env bash
# Builds the lumos benchmark from the checkout that contains this script and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload cli-plan --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seconds 3
#
# Build outputs and the Go build cache live in .bench_build at the checkout
# root; per-run scratch files live in .bench_run under the working directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/../.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
