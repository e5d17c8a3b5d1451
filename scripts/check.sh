#!/usr/bin/env bash
# Repo gate: formatting, lints, rustdoc warnings, and the tier-1 build+test cycle.
# Run from anywhere; operates on the workspace root.
#   --bench   additionally run the BENCH regression gate against the
#             committed BENCH_baseline.json (what CI's bench-gate job does)
set -euo pipefail
cd "$(dirname "$0")/.."

run_bench=0
for arg in "$@"; do
  case "$arg" in
    --bench) run_bench=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

# Every workspace crate by name: `--workspace` would also document the
# vendored path dependencies, whose own warnings are not ours to gate.
echo "== cargo doc (workspace crates, warnings are errors) =="
doc_args=()
for crate in music-repro music-apps music-bench music-cdb music-lockstore music-modelcheck \
  music music-paxos music-quorumstore music-runtime music-simnet music-telemetry \
  music-workload music-zab; do
  doc_args+=(-p "$crate")
done
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${doc_args[@]}"

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

if [[ "$run_bench" == 1 ]]; then
  echo "== BENCH regression gate (fresh run vs. committed baseline) =="
  tmp=$(mktemp -t BENCH_fresh.XXXXXX.json)
  ./target/release/music-sim profile --seed 7 --mode all \
    --out "$tmp" --compare BENCH_baseline.json --tolerance 10
  rm -f "$tmp"
fi

echo "OK"
