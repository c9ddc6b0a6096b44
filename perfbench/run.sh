#!/usr/bin/env bash
# Build guardiand and the benchmark from source, then run the benchmark:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to CARGO_TARGET_DIR (default .bench_build); sockets,
# shm rings and span dumps go to a run directory inside it.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p perfbench -p guardiand --bin perfbench --bin guardiand >&2
bin="$CARGO_TARGET_DIR/release"
exec "$bin/perfbench" --daemon "$bin/guardiand" --run-dir "$CARGO_TARGET_DIR/perfbench-run" "$@"
