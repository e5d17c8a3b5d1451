#!/usr/bin/env bash
# Replay oracle: does the working tree produce the same simulator schedule
# as another revision, to the digit?
#
#   scripts/replay_diff.sh <rev>
#
# Builds <rev> in a temporary `git worktree` with its own target dir, builds
# the working tree, and `cmp`s what both `music-sim` binaries print:
#
#   trace          music-sim trace --seed 7
#   nemesis        music-sim nemesis all --seed 1 --schedules 24
#   nemesis-drift  ... --drift-us 2000
#   nemesis-flash  ... --flash-crowd
#   profile        music-sim profile --seed 7 --mode all (its JSON)
#
# Prints one line per artifact, `same` or `DIFF` (with the first differing
# lines), and exits 1 if any artifact differs. A change that must not move
# the schedule (a simulator speed-up, a refactor) should find every artifact
# the same; a protocol change moves them by design, so this is not a CI gate.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <rev>" >&2
  exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")

tmp=$(mktemp -d -t replay_diff.XXXXXX)
cleanup() {
  git worktree remove --force "$tmp/tree" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

echo "building $rev in a worktree ..." >&2
git worktree add --detach --quiet "$tmp/tree" "$rev"
(cd "$tmp/tree" && CARGO_TARGET_DIR="$tmp/target" \
  cargo build --release --offline --quiet --bin music-sim)
echo "building the working tree ..." >&2
cargo build --release --offline --quiet --bin music-sim

base="$tmp/target/release/music-sim"
work="${CARGO_TARGET_DIR:-target}/release/music-sim"

# Runs one artifact on both binaries: name, then the music-sim arguments.
# A `{out}` argument is replaced by a file the binary writes; otherwise
# stdout is the artifact.
differ=0
artifact() {
  local name=$1
  shift
  local side bin a
  for side in base work; do
    if [[ $side == base ]]; then bin=$base; else bin=$work; fi
    local out="$tmp/$name.$side" args=() stdout="$tmp/$name.$side"
    for a in "$@"; do
      if [[ $a == "{out}" ]]; then
        args+=("$out")
        stdout=/dev/null
      else
        args+=("$a")
      fi
    done
    # A failing run is an artifact too: its exit status ends the output.
    { "$bin" "${args[@]}" 2>/dev/null || echo "exit $?"; } >"$stdout"
  done
  if cmp -s "$tmp/$name.base" "$tmp/$name.work"; then
    printf 'same  %s\n' "$name"
  else
    printf 'DIFF  %s\n' "$name"
    { diff "$tmp/$name.base" "$tmp/$name.work" || true; } | head -n 8 | sed 's/^/      /'
    differ=1
  fi
}

artifact trace trace --seed 7
artifact nemesis nemesis all --seed 1 --schedules 24
artifact nemesis-drift nemesis all --seed 1 --schedules 24 --drift-us 2000
artifact nemesis-flash nemesis all --seed 1 --schedules 24 --flash-crowd
artifact profile profile --seed 7 --mode all --out "{out}"

exit $differ
