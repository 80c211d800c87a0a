#!/usr/bin/env bash
# Builds the release `symloc` binary and the benchmark harness from the
# checkout this script lives in, then runs the harness:
#
#   bash perfbench/run.sh --workload trace-fused --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --self-test
#
# Build output goes to stderr; the harness prints its result as the last
# line of stdout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --bin symloc 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2

# Not `exec`: the harness reads its children's peak RSS from
# getrusage(RUSAGE_CHILDREN), which must not include the cargo builds above.
"$CARGO_TARGET_DIR/release/perfbench" --symloc "$CARGO_TARGET_DIR/release/symloc" \
    --work-dir .perfbench-work "$@"
