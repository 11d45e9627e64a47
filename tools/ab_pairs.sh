#!/usr/bin/env bash
# Alternating-pairs A/B of the repo benchmark: a parent revision against the
# working tree, on one workload. This is the check ROADMAP's "Rules of the
# road" asks for before a performance PR is opened.
#
#   tools/ab_pairs.sh [-n PAIRS] [-r REV] [-s SEED] WORKLOAD
#
#   -n PAIRS  runs per side, alternating parent/change (default 10)
#   -r REV    the parent revision (default HEAD)
#   -s SEED   the workload seed (default 1)
#
# REV is exported with `git archive` into a temp dir; both sides build
# benchmark/ into their own target dir. Every run is BENCHMARK.json's command
# with `--seconds <run_seconds> --trace 0`. For each end-to-end metric the
# summary prints each side's median and IQR, and IQR ÷ the parent's median
# against the metric's bound: the driver refuses a PR when either side's
# ratio exceeds the bound. It also prints how many pairs the change won and
# whether the median moved by more than the parent's IQR, which is what a
# claimed gain has to show.
set -euo pipefail

pairs=10
rev=HEAD
seed=1
while getopts "n:r:s:" opt; do
    case "$opt" in
        n) pairs=$OPTARG ;;
        r) rev=$OPTARG ;;
        s) seed=$OPTARG ;;
        *) sed -n '5,9p' "$0"; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -ne 1 ]; then
    sed -n '5,9p' "$0"
    exit 2
fi
workload=$1

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mapfile -t cmd < <(python3 -c 'import json, sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$root/BENCHMARK.json")
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")

mkdir -p "$tmp/parent"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
declare -A dir=([parent]="$tmp/parent" [change]="$root")
declare -A target=([parent]="$tmp/target-parent" [change]="$root/benchmark/target")

for side in parent change; do
    echo "building $side ($([ "$side" = parent ] && git -C "$root" rev-parse --short "$rev" || echo working tree))" >&2
    (cd "${dir[$side]}" && CARGO_TARGET_DIR="${target[$side]}" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

for i in $(seq 1 "$pairs"); do
    for side in parent change; do
        (cd "${dir[$side]}" && CARGO_TARGET_DIR="${target[$side]}" \
            "${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
            | tail -n 1 > "$tmp/$side-$i.json"
        echo "pair $i/$pairs $side done" >&2
    done
done

python3 - "$root/BENCHMARK.json" "$tmp" "$pairs" "$workload" <<'EOF'
import json, statistics, sys

spec, tmp, pairs, workload = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
runs = {side: [json.load(open(f"{tmp}/{side}-{i}.json")) for i in range(1, pairs + 1)]
        for side in ("parent", "change")}
for side, rs in runs.items():
    bad = [i + 1 for i, r in enumerate(rs) if not r["correct"] or r["failed"]]
    if bad:
        print(f"WARNING: {side} runs {bad} were incorrect or had failures")

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{workload}: {pairs} alternating pairs (parent, change)")
print(f"{'metric':<14} {'side':<7} {'median':>14} {'IQR':>12} {'IQR/parent':>11} {'bound':>6}")
for m in json.load(open(spec))["end_to_end"]:
    name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
    vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
    parent_q = quartiles(vals["parent"])
    for side in ("parent", "change"):
        q1, q2, q3 = quartiles(vals[side])
        ratio = (q3 - q1) / parent_q[1] if parent_q[1] else float("inf")
        flag = "ok" if ratio <= bound else "TOO WIDE"
        print(f"{name:<14} {side:<7} {q2:>14.6g} {q3 - q1:>12.4g} {ratio:>11.4f} {bound:>6} {flag}")
    for side in ("parent", "change"):
        print(f"{'':<14} {side:<7} runs: " + " ".join(f"{v:.4g}" for v in vals[side]))
    won = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
    moved = abs(quartiles(vals["change"])[1] - parent_q[1])
    resolved = "beyond" if moved > parent_q[2] - parent_q[0] else "within"
    print(f"{'':<14} change won {won}/{pairs} pairs; median moved {moved:.4g}, {resolved} the parent's IQR")
EOF
