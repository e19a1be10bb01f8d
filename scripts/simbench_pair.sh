#!/usr/bin/env bash
# Paired simbench comparison on one host: the working tree against BASE_REV.
#
#   scripts/simbench_pair.sh BASE_REV
#
# Extracts BASE_REV with `git archive` into a temporary directory, builds
# simbench there and in the working tree with the command BENCHMARK.json
# declares, runs the base and then the change at the benchmark's seed and
# length, and prints the change binary's `--compare base change` table.
# Exits with that comparison's status: 0 when no metric is `worse`, 1 when
# one is; any other failure (a bad revision, a failed build or run) also
# exits non-zero. Both runs share one host, so the verdicts do not depend
# on how fast that host is.
set -euo pipefail

base_rev=${1:?usage: scripts/simbench_pair.sh BASE_REV}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git -C "$repo" archive "$base_rev" | tar -x -C "$work/base"

# cargo SUBCOMMAND on TREE's simbench package: `simbench TREE build` or
# `simbench TREE run -- ARGS...`.
simbench() {
    local tree=$1 subcommand=$2
    shift 2
    cargo "$subcommand" --release --quiet --offline \
        --manifest-path "$tree/crates/bench/src/bin/simbench/Cargo.toml" "$@"
}

echo "building simbench at $base_rev and in $repo" >&2
simbench "$work/base" build
simbench "$repo" build

simbench "$work/base" run -- --seed 42 --seconds 20 --out "$work/base.json"
simbench "$repo" run -- --seed 42 --seconds 20 --out "$work/change.json"
simbench "$repo" run -- --compare "$work/base.json" "$work/change.json"
