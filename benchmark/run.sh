#!/usr/bin/env bash
# The benchmark's one command. Builds `dbring-serve` from the root workspace and the
# harness from benchmark/ (release, offline), then hands every argument to the
# harness:
#
#   benchmark/run.sh [--seed N] [--workload W] [--runs N] [--quick]
#       every workload (or W): untraced for the end-to-end metrics, then traced for
#       the per-layer metrics; one line per metric, plus benchmark/out/results.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run, ending in the one-line JSON result the benchmark driver reads
#   benchmark/run.sh --compare A.json B.json
#       two results files against the bounds in BENCHMARK.json; exit 1 on `worse`
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR is relative to where we were called from.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    server_target="$CARGO_TARGET_DIR"
    harness_target="$CARGO_TARGET_DIR"
else
    server_target="$root/target"
    harness_target="$here/target"
fi

# The default configuration is the one measured: no ingest-thread override.
unset DBRING_INGEST_THREADS

cd "$root"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p dbring-server --bin dbring-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$harness_target/release/dbring-benchmark" \
    --contract "$root/BENCHMARK.json" \
    --server-bin "$server_target/release/dbring-serve" \
    --out "$here/out" \
    "$@"
