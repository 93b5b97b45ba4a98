#!/usr/bin/env bash
# Paired end-to-end benchmark of the working tree against a parent revision.
#
#     scripts/bench_pairs.sh <parent-rev> <workload> <seed> <pairs> [seconds]
#
# Checks <parent-rev> out into a temporary `git worktree`, builds both
# sides' perfbench (`--offline`, separate target dirs under
# target/bench-pairs/, kept between invocations so rebuilds are
# incremental), then runs <pairs> pairs of `--trace 0` runs, alternating
# which side goes first (odd pairs parent-first, even pairs change-first).
# Each run lasts [seconds], by default BENCHMARK.json's `run_seconds`.
#
# For each end-to-end metric (norm_ops_per_s higher is better; setup_s and
# peak_rss_mb lower is better) it prints each side's median and quartiles,
# the number of pairs the change won (ties count for neither side), and a
# verdict under the paired rule: the change is "better" only if it won at
# least nine tenths of the pairs AND the medians differ by more than the
# parent's interquartile range; "worse" is the mirror image; anything else
# is "no clear change".

set -euo pipefail

if [ "$#" -lt 4 ] || [ "$#" -gt 5 ]; then
    echo "usage: scripts/bench_pairs.sh <parent-rev> <workload> <seed> <pairs> [seconds]" >&2
    exit 2
fi
parent_rev="$1"
workload="$2"
seed="$3"
pairs="$4"

cd "$(dirname "$0")/.."
root="$(pwd)"
seconds="${5:-$(grep -o '"run_seconds": *[0-9.]*' BENCHMARK.json | grep -o '[0-9.]*$')}"

work="$(mktemp -d)"
parent_dir="$work/tree"
cleanup() {
    git -C "$root" worktree remove --force "$parent_dir" 2> /dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT
git worktree add --quiet --detach "$parent_dir" "$parent_rev"

targets="$root/target/bench-pairs"
build() { # <source dir> <target name>
    echo "==> building perfbench for the $2 ($1)" >&2
    cargo build --release --offline --quiet --manifest-path "$1/perfbench/Cargo.toml" \
        --target-dir "$targets/$2"
}
build "$parent_dir" parent
build "$root" change

run() { # <side>: appends "norm_ops_per_s setup_s peak_rss_mb" to $work/<side>
    local dir="$root"
    [ "$1" = parent ] && dir="$parent_dir"
    local line
    line="$(cd "$dir" && "$targets/$1/release/stt-perfbench" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
    local values=()
    for metric in norm_ops_per_s setup_s peak_rss_mb; do
        values+=("$(printf '%s\n' "$line" | grep -o "\"$metric\": {\"value\": [^,}]*" \
            | sed 's/.*: //')")
    done
    echo "${values[*]}" >> "$work/$1"
    echo "    pair $pair $1: ${values[*]}" >&2
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent
        run change
    else
        run change
        run parent
    fi
done

echo "$workload seed $seed: $pairs pairs of ${seconds} s runs against $parent_rev"
printf '%-15s %12s %12s %12s %12s %12s %12s %8s  %s\n' metric parent_q1 parent_med \
    parent_q3 change_q1 change_med change_q3 wins verdict
column=0
for metric in norm_ops_per_s setup_s peak_rss_mb; do
    column=$((column + 1))
    better=lower
    [ "$metric" = norm_ops_per_s ] && better=higher
    paste -d ' ' "$work/parent" "$work/change" | awk -v col="$column" -v better="$better" \
        -v metric="$metric" '
        function quantile(sorted, n, q,    h, lo) {
            # Linear interpolation between order statistics.
            h = (n - 1) * q + 1
            lo = int(h)
            return lo >= n ? sorted[n] : sorted[lo] + (h - lo) * (sorted[lo + 1] - sorted[lo])
        }
        function sort_into(values, n, sorted,    i, j, t) {
            for (i = 1; i <= n; i++) sorted[i] = values[i]
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && sorted[j - 1] > sorted[j]; j--) {
                    t = sorted[j]; sorted[j] = sorted[j - 1]; sorted[j - 1] = t
                }
        }
        {
            n++
            p[n] = $col + 0
            c[n] = $(col + 3) + 0
            if ((better == "higher" && c[n] > p[n]) || (better == "lower" && c[n] < p[n])) wins++
            if ((better == "higher" && c[n] < p[n]) || (better == "lower" && c[n] > p[n])) losses++
        }
        END {
            sort_into(p, n, ps)
            sort_into(c, n, cs)
            p1 = quantile(ps, n, 0.25); pm = quantile(ps, n, 0.5); p3 = quantile(ps, n, 0.75)
            c1 = quantile(cs, n, 0.25); cm = quantile(cs, n, 0.5); c3 = quantile(cs, n, 0.75)
            gap = cm - pm
            if (gap < 0) gap = -gap
            clear = gap > p3 - p1
            verdict = "no clear change"
            if (wins * 10 >= 9 * n && clear) verdict = "better"
            if (losses * 10 >= 9 * n && clear) verdict = "worse"
            printf "%-15s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %5d/%-2d  %s (median %+.1f%%)\n",
                metric, p1, pm, p3, c1, cm, c3, wins, n, verdict, 100 * (cm - pm) / pm
        }'
done
