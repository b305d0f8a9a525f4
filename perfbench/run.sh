#!/usr/bin/env bash
# Builds the luxvis benchmark from source and runs it from the checkout
# root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build artifact (binary, Go build cache, temp files) stays under
# .bench_build in the checkout. A checkout without the luxvis sources
# next to perfbench fails the build, so the script exits non-zero
# without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/modcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go -C perfbench build -o "$out/perfbench" .

# The commit is recorded only when the checkout itself is a git work
# tree; the ceiling stops git from reporting an enclosing repository.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
PERFBENCH_NPROC="$(nproc)" PERFBENCH_COMMIT="$commit" exec "$out/perfbench" "$@"
