#!/usr/bin/env bash
# Alternating-pairs A/B of the repo benchmark: a parent revision against the
# working tree, on one workload or on `all` of them. This is the check
# ROADMAP's "Rules of the road" asks for before a performance change is
# proposed.
#
#   tools/ab_pairs.sh [-n PAIRS] [-r REV] [-s SEED] [-t METRICS] WORKLOAD
#
#   -n PAIRS    runs per side, alternating parent/change (default 10)
#   -r REV      the parent revision (default HEAD)
#   -s SEED     the workload seed (default 1)
#   -t METRICS  comma-separated per-layer metrics, e.g.
#               relation.join_s,relation.pool_jobs: run with --trace 1
#               and print each side's median of each of them instead of
#               the end-to-end summary
#
# REV is exported with `git archive`, and the working tree's tracked and
# unignored files are copied, into sibling temp dirs, so both sides build and
# run alike: a run writes its spill files under the directory it starts in,
# and the same binary's spill_sort_join peak RSS differs by up to 2% between
# directories. Both sides build benchmark/ into their own target dir. Every
# run is BENCHMARK.json's command with `--seconds <run_seconds> --trace 0`.
# Each workload a run covers prints a `== NAME (sizes)` header and, last, its
# one-line JSON result; every such result is kept, so `all` gets one summary
# per workload. For each workload and end-to-end metric the summary prints
# each side's median and IQR, and IQR ÷ the parent's median against the
# metric's bound: the benchmark gate refuses a change when either side's
# ratio exceeds the bound. It also prints how many pairs the change won and
# whether the median moved by more than the parent's IQR, which is what a
# claimed gain has to show.
#
# Under -t every run is `--trace 1` instead, and the summary is the named
# per-layer metrics only, read from the `NAME VALUE UNIT` lines a traced run
# prints: tracing slows the runs, so their end-to-end figures are not
# comparable with untraced ones and are not reported.
set -euo pipefail

pairs=10
rev=HEAD
seed=1
layers=
while getopts "n:r:s:t:" opt; do
    case "$opt" in
        n) pairs=$OPTARG ;;
        r) rev=$OPTARG ;;
        s) seed=$OPTARG ;;
        t) layers=$OPTARG ;;
        *) sed -n '7,15p' "$0"; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -ne 1 ]; then
    sed -n '7,15p' "$0"
    exit 2
fi
trace=$([ -n "$layers" ] && echo 1 || echo 0)
workload=$1

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mapfile -t cmd < <(python3 -c 'import json, sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$root/BENCHMARK.json")
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")

mkdir -p "$tmp/parent" "$tmp/change"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
(cd "$root" && git ls-files -z --cached --others --exclude-standard \
    | tar -c --null --ignore-failed-read -T -) | tar -x -C "$tmp/change"
declare -A dir=([parent]="$tmp/parent" [change]="$tmp/change")
declare -A target=([parent]="$tmp/target-parent" [change]="$tmp/target-change")

for side in parent change; do
    echo "building $side ($([ "$side" = parent ] && git -C "$root" rev-parse --short "$rev" || echo working tree))" >&2
    (cd "${dir[$side]}" && CARGO_TARGET_DIR="${target[$side]}" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

for i in $(seq 1 "$pairs"); do
    for side in parent change; do
        (cd "${dir[$side]}" && CARGO_TARGET_DIR="${target[$side]}" \
            "${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace") \
            > "$tmp/$side-$i.out"
        echo "pair $i/$pairs $side done" >&2
    done
done

python3 - "$root/BENCHMARK.json" "$tmp" "$pairs" "$layers" <<'EOF'
import json, statistics, sys

spec, tmp, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
layers = [m for m in sys.argv[4].split(",") if m]

def results(path):
    """The JSON result line of every workload in one run's stdout, by name,
    with the `NAME VALUE UNIT` lines printed above it for the metrics
    named by -t, as `layers[NAME]`."""
    out, name, printed = {}, None, {}
    for line in open(path):
        fields = line.split()
        if line.startswith("== "):
            name, printed = line[3:].split(" (")[0].strip(), {}
        elif line.startswith('{"correct"') and name is not None:
            out[name] = json.loads(line)
            out[name]["layers"] = printed
        elif len(fields) == 3 and fields[0] in layers:
            printed[fields[0]] = float(fields[1])
    return out

runs = {side: [results(f"{tmp}/{side}-{i}.out") for i in range(1, pairs + 1)]
        for side in ("parent", "change")}
names = list(runs["parent"][0])
if not names:
    sys.exit(f"no workload results in {tmp}/parent-1.out")

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

for wl in names:
    wruns = {s: [r[wl] for r in rs] for s, rs in runs.items()}
    for side, rs in wruns.items():
        bad = [i + 1 for i, r in enumerate(rs) if not r["correct"] or r["failed"]]
        if bad:
            print(f"WARNING: {wl}: {side} runs {bad} were incorrect or had failures")
    print(f"{wl}: {pairs} alternating pairs (parent, change)")
    end_to_end = [] if layers else json.load(open(spec))["end_to_end"]
    if end_to_end:
        print(f"{'metric':<14} {'side':<7} {'median':>14} {'IQR':>12} {'IQR/parent':>11} {'bound':>6}")
    for m in end_to_end:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        vals = {s: [r["metrics"][name]["value"] for r in wruns[s]] for s in wruns}
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
    for name in layers:
        vals = {s: [r["layers"].get(name) for r in wruns[s]] for s in wruns}
        if any(v is None for vs in vals.values() for v in vs):
            print(f"{name}: not printed by every run")
            continue
        med = {s: statistics.median(vs) for s, vs in vals.items()}
        ratio = f"{med['change'] / med['parent']:.3f}" if med["parent"] else "n/a"
        print(f"{name}: median parent {med['parent']:.6g}, change {med['change']:.6g}, ratio {ratio}")
        for side in ("parent", "change"):
            print(f"{'':<14} {side:<7} runs: " + " ".join(f"{v:.4g}" for v in vals[side]))
    print()
EOF
