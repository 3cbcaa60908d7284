#!/usr/bin/env bash
# The ledger's one command: builds the benchmark package from source, then
# runs it. Usage (from the repository root):
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--workload W] [--traced]
#   benchmark/run.sh --repeat SETSxRUNS [--out FILE]
#   benchmark/run.sh --print-spec
#
# Everything it writes stays under the build directory: $CARGO_TARGET_DIR
# when set, else benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
NRC_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
NRC_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export NRC_BENCH_COMMIT NRC_BENCH_RUSTC
exec "$target/release/nrc-benchmark" "$@"
