#!/usr/bin/env bash
# Paired A/B benchmark: is the working tree faster or slower than <rev>?
#
#   scripts/ab.sh <rev> [--workloads a,b] [--pairs N] [--seed-base S]
#                       [--seconds S]
#
# Builds <rev>'s benchmark in a temporary `git worktree` with its own target
# dir, and the working tree's in its usual one. Pair i (0-based) runs
#
#   benchmark/run.sh --workload W --seed S+i --seconds SEC --trace 0
#
# once on each side with the same seed, the base first on even pairs and the
# working tree first on odd ones, so a slow minute of the machine falls on
# both. Defaults: every workload in BENCHMARK.json, 10 pairs, seed base 1,
# 20 s per run. Every run's record goes to stderr as one JSON line
# {"side", "workload", "seed", "steal", "foreign", "result"} (result =
# run.sh's JSON line, or null), so `2>runs.jsonl` keeps the raw runs.
#
# Interference: /proc/stat is read before and after every run. `steal` is
# the share of all CPU ticks the hypervisor gave to other guests; `foreign`
# is the share that was busy but not spent by the run's own processes. The
# summary prints each side's median of both per workload and marks
# `(noisy)` every pair whose two sides' foreign shares differ by more than
# NOISY_FOREIGN. It is a report: no pair is dropped from any verdict.
#
# Per workload and end-to-end metric (names, `better` and `bound` from
# BENCHMARK.json) it prints each side's median [q1, q3], how much the change
# moved the median (positive = worse), the pairs the change won (ties count
# for neither side), the median gap over the base's IQR, the base's spread
# (IQR / median) and the first verdict that applies:
#   same        every pair ties;
#   better      the change wins at least 9 in 10 pairs and the median gap
#               exceeds the base's IQR (the paired rule, ROADMAP);
#   worse       the same rule, with the base winning;
#   past-bound  the change's median is worse than the base's by more than
#               the metric's bound;
#   unresolved  the base's spread is wider than the bound, so this many
#               pairs cannot tell a move of the bound from noise;
#   within      the median moved less than the bound and the base's spread
#               is narrower than it.
# Any run with `"correct":false` or `failed > 0` is listed. Exits 1 on a
# `worse` or `past-bound` verdict or a flagged run.
#
# Leave the sources alone while it runs: every run goes through run.sh,
# which rebuilds, so an edit changes the build under test midway.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
# A pair is (noisy) when its sides' foreign-busy shares differ by more.
NOISY_FOREIGN=0.05

usage() {
  echo "usage: $0 <rev> [--workloads a,b] [--pairs N] [--seed-base S] [--seconds S]" >&2
  exit 2
}
[[ $# -ge 1 ]] || usage
rev=$(git rev-parse --verify "$1^{commit}")
shift
workloads=$(python3 -c 'import json; print(",".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
pairs=10
seed_base=1
seconds=20
while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || usage
  case "$1" in
    --workloads) workloads=$2 ;;
    --pairs) pairs=$2 ;;
    --seed-base) seed_base=$2 ;;
    --seconds) seconds=$2 ;;
    *) usage ;;
  esac
  shift 2
done

tmp=$(mktemp -d -t ab.XXXXXX)
cleanup() {
  git worktree remove --force "$tmp/tree" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

echo "building $rev in a worktree ..." >&2
git worktree add --detach --quiet "$tmp/tree" "$rev"
base_target="$tmp/target"
work_target="${CARGO_TARGET_DIR:-$root/benchmark/target}"
# --list builds the package and runs nothing.
CARGO_TARGET_DIR=$base_target bash "$tmp/tree/benchmark/run.sh" --list >/dev/null
echo "building the working tree ..." >&2
CARGO_TARGET_DIR=$work_target bash "$root/benchmark/run.sh" --list >/dev/null

runs="$tmp/runs.jsonl"
: >"$runs"
# Machine-wide CPU ticks from /proc/stat: total, busy (user, nice, system,
# irq, softirq; guest time is inside user) and steal.
machine_ticks() {
  awk '/^cpu /{print $2+$3+$4+$5+$6+$7+$8+$9, $2+$3+$4+$7+$8, $9; exit}' /proc/stat
}
# CPU ticks of this shell's reaped children: a run's whole process tree
# once its command substitution has returned.
own_ticks() {
  awk '{print $16 + $17}' "/proc/$$/stat"
}

# One run: side, workload, seed. Appends its record to $runs and stderr; a
# run that prints no JSON line is recorded as null.
run() {
  local side=$1 w=$2 seed=$3 dir target line m0 m1 o0 o1 shares
  if [[ $side == base ]]; then dir=$tmp/tree target=$base_target; else dir=$root target=$work_target; fi
  m0=$(machine_ticks) o0=$(own_ticks)
  line=$(cd "$dir" && CARGO_TARGET_DIR=$target bash benchmark/run.sh \
    --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1) || true
  m1=$(machine_ticks) o1=$(own_ticks)
  [[ $line == "{"* ]] || line=null
  shares=$(awk -v a="$m0" -v b="$m1" -v own=$((o1 - o0)) 'BEGIN {
    split(a, x, " "); split(b, y, " ")
    total = y[1] - x[1]; busy = y[2] - x[2] - own
    if (total <= 0) total = 1
    if (busy < 0) busy = 0
    printf "\"steal\": %.4f, \"foreign\": %.4f", (y[3] - x[3]) / total, busy / total
  }')
  echo "{\"side\": \"$side\", \"workload\": \"$w\", \"seed\": $seed, $shares, \"result\": $line}" | tee -a "$runs" >&2
}

IFS=, read -r -a wls <<<"$workloads"
for w in "${wls[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    seed=$((seed_base + i))
    if ((i % 2 == 0)); then order="base work"; else order="work base"; fi
    for side in $order; do run "$side" "$w" "$seed"; done
    echo "ab: $w pair $((i + 1))/$pairs (seed $seed) done" >&2
  done
done

python3 - "$runs" "$root/BENCHMARK.json" "$rev" "$workloads" "$NOISY_FOREIGN" <<'PY'
import json, math, statistics, sys

runs = [json.loads(l) for l in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
rev, workloads = sys.argv[3][:10], sys.argv[4].split(",")
noisy_level = float(sys.argv[5])

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]

flagged = [
    f"{r['workload']} seed {r['seed']} ({r['side']}): "
    + ("no result" if r["result"] is None else
       f"correct={r['result'].get('correct')} failed={r['result'].get('failed')}")
    for r in runs
    if r["result"] is None or not r["result"].get("correct") or r["result"].get("failed", 0) > 0
]

print(f"base {rev} vs working tree; Δ = change of the median, + is worse")
head = f"{'workload':<17} {'metric':<14} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30} {'Δ':>8} {'wins':>6} {'gap/IQR':>8} {'spread':>7}  verdict"
print(head)
print("-" * len(head))
failed_any = False
for w in workloads:
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        by_seed = {}
        for r in runs:
            if r["workload"] == w and r["result"] is not None:
                v = r["result"].get("metrics", {}).get(name, {}).get("value")
                if v is not None:
                    by_seed.setdefault(r["seed"], {})[r["side"]] = v
        paired = [(s["base"], s["work"]) for s in by_seed.values() if len(s) == 2]
        if not paired:
            print(f"{w:<17} {name:<14} {'(no paired runs)':>30}")
            continue
        base = [b for b, _ in paired]
        work = [c for _, c in paired]
        n = len(paired)
        wins = sum((c < b) if lower else (c > b) for b, c in paired)
        losses = sum((c > b) if lower else (c < b) for b, c in paired)
        mb, mw = statistics.median(base), statistics.median(work)
        (q1b, q3b), (q1w, q3w) = quartiles(base), quartiles(work)
        iqr = q3b - q1b
        # Positive = the change is worse.
        gap = (mw - mb) if lower else (mb - mw)
        delta = gap / mb if mb else 0.0
        spread = iqr / mb if mb else 0.0
        need = math.ceil(0.9 * n)
        if wins == 0 and losses == 0:
            verdict = "same"
        elif wins >= need and -gap > iqr:
            verdict = "better"
        elif losses >= need and gap > iqr:
            verdict = "worse"
        elif delta > bound:
            verdict = "past-bound"
        elif spread > bound:
            verdict = "unresolved"
        else:
            verdict = "within"
        failed_any |= verdict in ("worse", "past-bound")
        ratio = f"{abs(gap) / iqr:.2f}" if iqr > 0 else ("inf" if gap else "0")
        num = lambda v: f"{v:.0f}" if abs(v) >= 1000 else f"{v:.4g}"
        fmt = lambda m, a, b: f"{num(m)} [{num(a)}, {num(b)}]"
        print(f"{w:<17} {name:<14} {fmt(mb, q1b, q3b):>30} {fmt(mw, q1w, q3w):>30} "
              f"{delta:>+8.1%} {wins:>3}/{n:<2} {ratio:>8} {spread:>7.1%}  {verdict}")
print(f"\ninterference: share of all CPU ticks during a run, median per side; "
      f"(noisy) = the pair's foreign shares differ by more than {noisy_level}")
print(f"{'workload':<17} {'steal base':>10} {'steal work':>10} {'foreign base':>12} {'foreign work':>12}  pairs")
for w in workloads:
    side = {s: [r for r in runs if r["workload"] == w and r["side"] == s] for s in ("base", "work")}
    med = lambda s, k: f"{statistics.median(r[k] for r in side[s]):.1%}" if side[s] else "-"
    foreign = {(r["seed"], r["side"]): r["foreign"] for r in runs if r["workload"] == w}
    seeds = sorted({seed for seed, _ in foreign})
    pairs = [(s, foreign[(s, "base")], foreign[(s, "work")]) for s in seeds
             if (s, "base") in foreign and (s, "work") in foreign]
    noisy = [f"seed {s} {b:.1%}/{c:.1%} (noisy)" for s, b, c in pairs if abs(b - c) > noisy_level]
    print(f"{w:<17} {med('base', 'steal'):>10} {med('work', 'steal'):>10} "
          f"{med('base', 'foreign'):>12} {med('work', 'foreign'):>12}  "
          + (", ".join(noisy) if noisy else f"{len(pairs)} clean"))
if flagged:
    print("\nflagged runs:")
    for f in flagged:
        print("  " + f)
sys.exit(1 if failed_any or flagged else 0)
PY
