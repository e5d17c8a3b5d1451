#!/usr/bin/env bash
# A/A noise report: two interleaved sets of runs of the same build, every
# run with a seed of its own, as the driver does. Prints, per workload and
# end-to-end metric, both medians, how much worse the second is than the
# first, and each set's quartile spread (Q3-Q1 over the median) next to the
# bound in BENCHMARK.json. The table goes into benchmark/README.md.
#
#   benchmark/aa.sh [RUNS_PER_SET=5] [SECONDS=run_seconds]
#
# Leave the sources alone while it runs: every run goes through run.sh,
# which rebuilds, so an edit changes the build under test midway.
#
# A pair whose gap exceeds half its bound, or whose spread exceeds a third
# of it, is flagged: fix it with a longer run or a wider recorded bound,
# never by dropping the workload.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
runs="${1:-5}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
out="$here/out"
mkdir -p "$out"
log="$out/aa-runs.jsonl"
: >"$log"

workloads="$(bash "$here/run.sh" --list)"
for i in $(seq 1 "$runs"); do
    for set in A B; do
        # Sets alternate run by run, so slow minutes of the machine fall on both.
        if [ "$set" = A ]; then seed=$i; else seed=$((1000 + i)); fi
        for w in $workloads; do
            line="$(bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
            echo "{\"set\": \"$set\", \"workload\": \"$w\", \"seed\": $seed, \"result\": $line}" >>"$log"
            echo "aa: set $set run $i $w done" >&2
        done
    done
done

python3 - "$log" "$root/BENCHMARK.json" <<'PY'
import json, statistics, sys

runs = [json.loads(l) for l in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
flagged = 0
print("| workload | metric | median A | median B | B worse by | spread A | spread B | bound |")
print("|---|---|---|---|---|---|---|---|")
for w in [x["name"] for x in spec["workloads"]]:
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sets = {}
        for s in "AB":
            rs = [r["result"] for r in runs if r["set"] == s and r["workload"] == w]
            if any(not r["correct"] or r["failed"] for r in rs):
                print(f"aa: {w} set {s}: a run was incorrect or had failed sections", file=sys.stderr)
                flagged += 1
            sets[s] = [r["metrics"][name]["value"] for r in rs]
        med = {s: statistics.median(v) for s, v in sets.items()}

        def spread(v):
            q = statistics.quantiles(v, n=4)
            return (q[2] - q[0]) / statistics.median(v)

        worse = (med["B"] - med["A"]) / med["A"]
        if m["better"] == "higher":
            worse = -worse
        sa, sb = spread(sets["A"]), spread(sets["B"])
        flag = ""
        # setup_s is held to the gap only, as the driver holds it.
        if worse > bound / 2 or (name != "setup_s" and max(sa, sb) > bound / 3):
            flag = " **!**"
            flagged += 1
        print(f"| {w} | {name} | {med['A']:.4g} | {med['B']:.4g} | {worse:+.1%} | {sa:.1%} | {sb:.1%} | {bound:.0%}{flag} |")
print(f"\n{flagged} flagged" if flagged else "\nnone flagged")
PY
