#!/usr/bin/env bash
# Runs every benchmark workload once, at seed 1 for 25 seconds, and prints
# its metrics by name with their units. Run from anywhere inside the
# repository:
#
#   perfbench/all.sh                 # end-to-end metrics
#   TRACE=1 perfbench/all.sh         # per-layer metrics of the traced run
#
# For another seed or duration, run the command in BENCHMARK.json directly.
set -euo pipefail
cd "$(dirname "$0")/.."
status=0
for workload in serial-kfac pipe2-kfac pipe2-lamb; do
    echo "== $workload"
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 25 --trace "${TRACE:-0}" || status=1
done
exit "$status"
