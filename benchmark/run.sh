#!/usr/bin/env bash
# The benchmark's one command. From the root of the repository:
#
#   benchmark/run.sh                      every workload, each in its own
#                                         process, all metrics and checks
#   benchmark/run.sh --traced             ... and the per-layer table
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one workload (what BENCHMARK.json's
#                                         command is called with)
#   benchmark/run.sh compare A.json B.json
#
# Builds the package from source on first use (offline, release profile).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
case "${1:-}" in
  --workload | compare | manifest | run) ;;
  *) set -- run "$@" ;;
esac
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
