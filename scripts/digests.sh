#!/usr/bin/env bash
# Bit-identity digests of every deterministic output surface.
#
# Run from anywhere inside the repo:
#
#     scripts/digests.sh > before.txt      # on the parent commit
#     scripts/digests.sh > after.txt       # on the change
#     diff before.txt after.txt            # empty for a pure refactor
#
# Prints one line per surface:
#   * the md5 of each `trafficsim` sweep CSV (default, load, reliability,
#     topology, March and thermal sweeps at their default sizes);
#   * the md5 of the `handheld_trace` example's output;
#   * the md5 of the CSVs `repro fig11` and `repro fig5mc` write (the
#     `run_trials` / `run_trial_batches` Monte-Carlo fan-outs);
#   * the `sim digest` line `perfbench` prints for replay-ecc, frontend-open,
#     chip-closed and circuit-mc at seeds 1 and 90210.
#
# Takes a few minutes on a 2-core host (the default-size sweeps dominate).

set -euo pipefail

cd "$(dirname "$0")/.."

out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT

for mode in default --load-sweep --reliability-sweep --topology-sweep --march-sweep \
    --thermal-sweep; do
    dir="$out_dir/${mode#--}"
    mkdir -p "$dir"
    if [ "$mode" = default ]; then
        cargo run --release -q -p stt-bench --bin trafficsim -- --csv "$dir" > /dev/null
    else
        cargo run --release -q -p stt-bench --bin trafficsim -- "$mode" --csv "$dir" > /dev/null
    fi
    for csv in "$dir"/*.csv; do
        printf 'trafficsim %s %s %s\n' "$mode" "$(basename "$csv")" \
            "$(md5sum < "$csv" | cut -d' ' -f1)"
    done
done

printf 'handheld_trace %s\n' \
    "$(cargo run --release -q --example handheld_trace | md5sum | cut -d' ' -f1)"

for experiment in fig11 fig5mc; do
    cargo run --release -q -p stt-bench --bin repro -- "$experiment" --csv "$out_dir/repro" \
        > /dev/null
    printf 'repro %s.csv %s\n' "$experiment" \
        "$(md5sum < "$out_dir/repro/$experiment.csv" | cut -d' ' -f1)"
done

for workload in replay-ecc frontend-open chip-closed circuit-mc; do
    for seed in 1 90210; do
        line="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 0.1 --trace 0 \
            | grep '^sim digest')"
        printf 'perfbench seed %s %s\n' "$seed" "$line"
    done
done
