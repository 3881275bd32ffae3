#!/usr/bin/env bash
# The one command: builds the benchmark (release, offline) and runs one
# workload from a seed.
#
#   benchmark/run.sh --workload W [--seed S] [--seconds N] [--trace [0|1]] [--smoke]
#
# Run from anywhere; it works from the repository root. Build output and
# every file a run creates (datanode block stores, metadata logs) go under
# the Cargo target directory: $CARGO_TARGET_DIR if set, else
# benchmark/target.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Measure the kernel the product dispatches by itself, not an override.
unset CAROUSEL_KERNEL

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

mkdir -p "$target/tmp"
TMPDIR="$(cd "$target/tmp" && pwd)"
export TMPDIR
exec "$target/release/carousel-benchmark" "$@"
