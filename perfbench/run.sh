#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload <dense-serve|metro-serve|power-churn> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. `--trace 0` runs `perfbench` (system
# allocator, end-to-end metrics); `--trace 1` runs `perfbench-traced`
# (counting allocator, per-layer metrics). The last line of standard
# output is the JSON result. Build artefacts go to $CARGO_TARGET_DIR,
# or perfbench/target when it is unset.
set -euo pipefail

manifest=perfbench/Cargo.toml
cargo build --release --offline --quiet --manifest-path "$manifest" --bins 1>&2

target="${CARGO_TARGET_DIR:-perfbench/target}"
bin=perfbench
prev=
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=perfbench-traced
    fi
    prev=$arg
done
exec "$target/release/$bin" "$@"
