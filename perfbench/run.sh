#!/usr/bin/env bash
# Build axml-server and the benchmark from source, then run one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload kv_lookup --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates/server ] || [ ! -f perfbench/Cargo.toml ]; then
    echo "perfbench: run from the repository root (crates/server not found)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
# These variables change the engine configuration; the benchmark pins it.
unset AXML_WORKERS AXML_FORCE_INTERPRET

cargo build --release --locked --quiet -p axml-server >&2
cargo build --release --locked --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/axml-perfbench" --server-bin "$target/release/axml-server" "$@"
