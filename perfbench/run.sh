#!/usr/bin/env bash
# Builds the benchmark's two binaries from source (release, offline) and
# runs `perfbench` with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR when it is set, else to
# perfbench/target.
set -euo pipefail
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bins
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench" "$@"
