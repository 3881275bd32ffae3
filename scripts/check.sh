#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, a layering grep, clippy, rustdoc,
# the full test suite, the degraded-read example, the `ext_*` bench smokes
# and a compile of the frozen `benchmark/` package. Run from anywhere inside the repo; it takes no
# arguments.
#
# Everything runs --offline: this workspace vendors its few dependencies
# under crates/vendor/ and must build without network access.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

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

step "cargo clippy (-D warnings)"
# Also the concurrency rule: clippy.toml bans raw threads workspace-wide
# (fan-out goes through access::parallel); each legitimate owner of a
# thread carries an #[allow(clippy::disallowed_methods)] with its reason.
cargo clippy --workspace --all-targets --offline -- -D warnings

# Vendored third-party crates are excluded from the doc gate; only our
# own crates must document cleanly.
doc_excludes=(--exclude rand --exclude proptest)

step "cargo doc (warnings as errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps "${doc_excludes[@]}" --offline -q

step "cargo test"
cargo test --workspace --offline -q

step "degraded read example: bytes at every loss, InsufficientData past n - k"
cargo run --release --offline --example degraded_read

step "kernel bench smoke + JSONL schema check"
metrics=$(mktemp /tmp/carousel-metrics.XXXXXX.jsonl)
cargo run --release --offline -p carousel-bench --bin ext_kernels -- --smoke --metrics "$metrics"
cargo run --release --offline -p carousel-bench --bin jsonl_check -- "$metrics"
rm -f "$metrics"

step "metadata scale-out bench smoke + JSONL schema check"
meta=$(mktemp /tmp/carousel-meta.XXXXXX.jsonl)
cargo run --release --offline -p carousel-bench --bin ext_metadata -- --smoke --metrics "$meta"
cargo run --release --offline -p carousel-bench --bin jsonl_check -- "$meta"
rm -f "$meta"

step "update/packing bench smoke + JSONL schema check"
upd=$(mktemp /tmp/carousel-update.XXXXXX.jsonl)
cargo run --release --offline -p carousel-bench --bin ext_update -- --smoke --metrics "$upd"
cargo run --release --offline -p carousel-bench --bin jsonl_check -- "$upd"
rm -f "$upd"

step "frozen benchmark still compiles"
# benchmark/ is its own workspace, built unedited from this checkout by
# the benchmark driver: a PR that renames something it uses must find out
# here. Cargo rewrites benchmark/Cargo.lock when crate deps have moved;
# that file is frozen too, so it is copied aside and put back on exit.
# Output goes to $CARGO_TARGET_DIR when set, else benchmark/target.
bench_lock=$(mktemp /tmp/carousel-bench-lock.XXXXXX)
cp benchmark/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" benchmark/Cargo.lock; rm -f "$bench_lock"' EXIT
cargo check --offline --manifest-path benchmark/Cargo.toml

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
