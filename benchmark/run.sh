#!/usr/bin/env bash
# The benchmark's one command. Builds the package (release) and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]              every workload, untraced then traced
#   benchmark/run.sh --layers [--quick]                              isolated per-layer timing loops
#   benchmark/run.sh --selftest                                      same-seed determinism of sim_*
#
# Run it from the root of the checkout. Each run prints its metrics by
# name with their units and, as its last line, one JSON object with
# `correct`, `attempted`, `failed` and `metrics`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

# Quiet unless the build fails; the path dependencies on ../crates and
# ../vendor must exist, so this fails outside a full checkout.
if ! log="$(cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" 2>&1)"; then
    echo "$log" >&2
    exit 1
fi
bin="$target/release/music-benchmark"
cd "$root"

for arg in "$@"; do
    case "$arg" in
    --workload | --layers | --selftest | --list) exec "$bin" "$@" ;;
    esac
done

# No workload named: run them all, end-to-end metrics first (untraced),
# then the per-layer ledger (traced).
status=0
for w in $("$bin" --list); do
    "$bin" --workload "$w" "$@" --trace 0 || status=1
    "$bin" --workload "$w" "$@" --trace 1 || status=1
done
exit $status
