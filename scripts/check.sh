#!/usr/bin/env bash
# Repo gate: formatting, lints, rustdoc warnings, and the tier-1 build+test cycle.
# Run from anywhere; operates on the workspace root. Takes no arguments.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
  echo "usage: $0" >&2
  exit 2
fi

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

echo "OK"
