#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, and the full test suite in
# both telemetry configurations. Run from anywhere inside the repo.
#
#   scripts/check.sh          # everything (fmt, clippy, tests x2)
#   scripts/check.sh fast     # skip the --no-default-features test pass
#
# Everything runs --offline: this workspace vendors its few dependencies
# under crates/vendor/ and must build without network access.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

mode="${1:-full}"

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "layering guard: plans come from the code, replanning stays in crates/access"
# Plans are defined once in crates/erasure and produced by the code
# (ErasureCode::plan_read / plan_block_read); transports execute them
# through the access layer: no private plan structs and no hand-rolled
# replan loops in the transport crates.
guard_hits=$(grep -rnE "'replan|struct (ReadPlan|DegradedPlan|RegionSolve|RepairPlan|PlanCache)" \
  crates/filestore/src crates/dfs/src crates/cluster/src || true)
if [ -n "$guard_hits" ]; then
  printf 'transport crates must not define plans or replan loops:\n%s\n' "$guard_hits" >&2
  exit 1
fi

step "concurrency guard: client-side fan-out goes through access::parallel"
# Wire concurrency on the client/transport side must use the shared
# ParallelCtx pool (and its pipeline helper), not hand-rolled threads —
# that is what keeps fan-out width a single knob and tallies race-free.
# crates/access/src/parallel.rs is the pool itself. In the cluster crate
# datanode.rs and repair.rs are excluded: a datanode is a *server* and
# legitimately owns its accept/connection/heartbeat threads, and the
# background repair scheduler owns its long-lived worker/monitor threads
# (its *clients* still fan out through ParallelCtx).
guard_hits=$(grep -rnE "thread::(spawn|scope|Builder)" \
  crates/cluster/src crates/dfs/src crates/filestore/src crates/access/src \
  | grep -vE 'crates/access/src/parallel\.rs|crates/cluster/src/(datanode|repair)\.rs' || true)
if [ -n "$guard_hits" ]; then
  printf 'use access::parallel (ParallelCtx / pipeline) instead of raw threads:\n%s\n' "$guard_hits" >&2
  exit 1
fi

step "unsafe guard: intrinsics stay in gf256::kernel::simd"
# The SIMD kernels are the workspace's only sanctioned unsafe: every
# intrinsic lives behind a #[target_feature] function in
# crates/gf256/src/kernel/simd.rs, and kernels are registered only after
# runtime CPU-feature detection. Nothing else may contain unsafe code
# (attribute mentions like deny(unsafe_code) and comments are fine).
guard_hits=$(grep -rnE '\bunsafe\b' --include='*.rs' src tests examples \
  crates/access crates/bench crates/cluster crates/core crates/dfs crates/erasure \
  crates/filestore crates/gf256 crates/lrc crates/mapreduce crates/msr crates/rs \
  crates/simcore crates/telemetry crates/workloads \
  | grep -v 'crates/gf256/src/kernel/simd\.rs' \
  | grep -vE 'unsafe_code|:[0-9]+:\s*//' || true)
if [ -n "$guard_hits" ]; then
  printf 'unsafe code is confined to crates/gf256/src/kernel/simd.rs:\n%s\n' "$guard_hits" >&2
  exit 1
fi

step "cargo clippy (default features, -D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "cargo clippy (--no-default-features, -D warnings)"
cargo clippy --workspace --all-targets --no-default-features --offline -- -D warnings

# Vendored third-party crates are excluded from the doc gate; only our
# own crates must document cleanly.
doc_excludes=(--exclude rand --exclude proptest --exclude criterion)

step "cargo doc (default features, warnings as errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps "${doc_excludes[@]}" --offline -q

step "cargo doc (--no-default-features, warnings as errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps "${doc_excludes[@]}" --no-default-features --offline -q

step "cargo test (default features: telemetry on)"
cargo test --workspace --offline -q

step "cluster loopback smoke test (telemetry on)"
cargo test --offline -q --test cluster_loopback

step "kernel bench smoke + JSONL schema check (telemetry on)"
metrics_on=$(mktemp /tmp/carousel-metrics-on.XXXXXX.jsonl)
cargo run --release --offline -p carousel-bench --bin ext_kernels -- --smoke --metrics "$metrics_on"
cargo run --release --offline -p carousel-bench --bin jsonl_check -- "$metrics_on"
rm -f "$metrics_on"

step "observability bench smoke (telemetry on)"
cargo run --release --offline -p carousel-bench --bin ext_observe -- --smoke

step "repair-storm bench smoke (telemetry on)"
cargo run --release --offline -p carousel-bench --bin ext_repair_storm -- --smoke

step "metadata scale-out bench smoke + JSONL schema check (telemetry on)"
meta_on=$(mktemp /tmp/carousel-meta-on.XXXXXX.jsonl)
cargo run --release --offline -p carousel-bench --bin ext_metadata -- --smoke --metrics "$meta_on"
cargo run --release --offline -p carousel-bench --bin jsonl_check -- "$meta_on"
rm -f "$meta_on"

step "update/packing bench smoke + JSONL schema check (telemetry on)"
upd_on=$(mktemp /tmp/carousel-update-on.XXXXXX.jsonl)
cargo run --release --offline -p carousel-bench --bin ext_update -- --smoke --metrics "$upd_on"
cargo run --release --offline -p carousel-bench --bin jsonl_check -- "$upd_on"
rm -f "$upd_on"

if [ "$mode" != "fast" ]; then
  step "cargo test (--no-default-features: telemetry compiled out)"
  cargo test --workspace --no-default-features --offline -q

  step "cluster loopback smoke test (telemetry off)"
  cargo test --offline -q --no-default-features --test cluster_loopback

  step "kernel bench smoke + JSONL schema check (telemetry off)"
  metrics_off=$(mktemp /tmp/carousel-metrics-off.XXXXXX.jsonl)
  cargo run --release --offline -p carousel-bench --no-default-features --bin ext_kernels -- --smoke --metrics "$metrics_off"
  cargo run --release --offline -p carousel-bench --no-default-features --bin jsonl_check -- "$metrics_off"
  rm -f "$metrics_off"

  step "observability bench smoke (telemetry off)"
  cargo run --release --offline -p carousel-bench --no-default-features --bin ext_observe -- --smoke

  step "repair-storm bench smoke (telemetry off)"
  cargo run --release --offline -p carousel-bench --no-default-features --bin ext_repair_storm -- --smoke

  step "metadata scale-out bench smoke + JSONL schema check (telemetry off)"
  meta_off=$(mktemp /tmp/carousel-meta-off.XXXXXX.jsonl)
  cargo run --release --offline -p carousel-bench --no-default-features --bin ext_metadata -- --smoke --metrics "$meta_off"
  cargo run --release --offline -p carousel-bench --no-default-features --bin jsonl_check -- "$meta_off"
  rm -f "$meta_off"

  step "update/packing bench smoke + JSONL schema check (telemetry off)"
  upd_off=$(mktemp /tmp/carousel-update-off.XXXXXX.jsonl)
  cargo run --release --offline -p carousel-bench --no-default-features --bin ext_update -- --smoke --metrics "$upd_off"
  cargo run --release --offline -p carousel-bench --no-default-features --bin jsonl_check -- "$upd_off"
  rm -f "$upd_off"
fi

step "cross-compile gate: aarch64 NEON kernel path"
# The NEON kernel cannot run on x86 CI, but it must at least keep
# compiling; `cargo check` for the aarch64 target catches intrinsic or
# cfg rot. Falls back with a warning when the target's std isn't
# installed (e.g. a fresh toolchain without `rustup target add`).
if rustup target list --installed 2>/dev/null | grep -q '^aarch64-unknown-linux-gnu$'; then
  cargo check -p carousel-gf256 --target aarch64-unknown-linux-gnu --offline -q
else
  echo "warning: aarch64-unknown-linux-gnu target not installed; skipping NEON cross-check"
fi

step "all checks passed"
