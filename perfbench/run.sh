#!/usr/bin/env bash
# Builds the program and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes under $CARGO_TARGET_DIR
# (default .bench_build): the daemon is built by the repository's own
# workspace with its own release profile, the benchmark by its package in
# this directory. The last line of stdout is the JSON result.
set -euo pipefail

target=${CARGO_TARGET_DIR:-.bench_build}
case $target in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

CARGO_TARGET_DIR="$target/served" \
    cargo build --release --offline --quiet -p archpredict-served >&2
CARGO_TARGET_DIR="$target/perfbench" \
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$target/perfbench/release/perfbench" "$@" \
    --work "$target/perfbench-work" \
    --served "$target/served/release/archpredict-served"
