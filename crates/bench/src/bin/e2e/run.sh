#!/usr/bin/env bash
# Builds the program's socket node and the benchmark from source, then runs
# the benchmark with the arguments given. Run from the repository root:
#
#   bash crates/bench/src/bin/e2e/run.sh --workload ctrl_small --seed 1 --seconds 10 --trace 0
#   bash crates/bench/src/bin/e2e/run.sh --seed 1            # every workload, both passes
#
# Outside a checkout of the repository the build fails and so does this
# script, without printing a result.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
if [ ! -f Cargo.toml ] || [ ! -d crates/runtime ]; then
    echo "run.sh: run from the root of a checkout of the repository" >&2
    exit 1
fi
# One target directory for both builds, so `couplink-node` lands next to `e2e`.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline -p couplink-runtime --bin couplink-node
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml"
# Not `exec`: as a child of its own the benchmark's resource usage (and its
# children's) starts from zero instead of inheriting cargo's.
"$CARGO_TARGET_DIR/release/e2e" "$@"
