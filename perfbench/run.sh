#!/usr/bin/env bash
# Build foxq and the benchmark from this source tree, then run one
# benchmark invocation. Run from the root of a foxq checkout:
#   bash perfbench/run.sh --workload xmark-xml --seed 1 --seconds 10 --trace 0
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a foxq source tree" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin foxq >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --foxq "$CARGO_TARGET_DIR/release/foxq" "$@"
