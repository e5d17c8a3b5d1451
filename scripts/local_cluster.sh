#!/usr/bin/env bash
# Brings up a 3-node `music-node` cluster on localhost and drives critical
# sections through it with `music-load` over real TCP sockets.
#
# Environment overrides:
#   SECTIONS (default 120)  total critical sections to complete (>= 100
#                           for the CI acceptance gate)
#   CLIENTS  (default 3)    concurrent load clients
#   KEYS     (default 4)    distinct counter keys under contention
#   BASE_PORT (default 7401) first node port (nodes use three consecutive)
#   LOG_DIR  (default mktemp) where node/load logs land
#   SKIP_BUILD=1            reuse existing target/release binaries
#   ONLINE_SAMPLE (default 1) online-checker key sampling for the first
#                           pass (0 turns the streaming checker off)
#   KILL9=0                 skip the second pass (kill -9 one node while
#                           sections are in flight; the survivors' 2/3
#                           quorum must finish the run and verify clean)
#                           and every pass after it
#   FLASH=0                 skip the third pass (flash crowd: every client
#                           converges on one hot key with the contention-
#                           adaptive controller on; the run must finish
#                           clean and the counters must verify)
#   STOP=0                  skip the fourth pass (kill -STOP one node while
#                           sections are in flight: a hung peer that
#                           accepts but never reads; the other 2/3 must
#                           finish the run and the counters must verify,
#                           and a write to the hung node must time out)
set -euo pipefail

SECTIONS="${SECTIONS:-120}"
CLIENTS="${CLIENTS:-3}"
KEYS="${KEYS:-4}"
BASE_PORT="${BASE_PORT:-7401}"
LOG_DIR="${LOG_DIR:-$(mktemp -d /tmp/music-cluster.XXXXXX)}"
ONLINE_SAMPLE="${ONLINE_SAMPLE:-1}"
KILL9="${KILL9:-1}"
FLASH="${FLASH:-1}"
STOP="${STOP:-1}"

cd "$(dirname "$0")/.."
mkdir -p "$LOG_DIR"

if [[ "${SKIP_BUILD:-0}" != "1" ]]; then
  echo "local_cluster: building music-node / music-load (release)..."
  cargo build --release -p music --bins
fi
BIN=target/release

PEERS="1=127.0.0.1:${BASE_PORT},2=127.0.0.1:$((BASE_PORT + 1)),3=127.0.0.1:$((BASE_PORT + 2))"

pids=()
cleanup() {
  for p in "${pids[@]}"; do
    # A stopped node acts on SIGTERM only once it runs again.
    kill -CONT "$p" 2>/dev/null || true
    kill "$p" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

# Starts node $1 (appending to its log) and records its pid in pids[$1-1].
start_node() {
  local i="$1" port=$((BASE_PORT + $1 - 1))
  "$BIN/music-node" --id "$i" --listen "127.0.0.1:${port}" --peers "$PEERS" \
    >>"$LOG_DIR/node$i.log" 2>&1 &
  pids[$((i - 1))]=$!
}

# Waits (up to ~10s) for node $1's listener to accept connections.
wait_listening() {
  local i="$1" port=$((BASE_PORT + $1 - 1))
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/${port}") 2>/dev/null; then
      exec 3>&- 3<&- || true
      return 0
    fi
    sleep 0.1
  done
  echo "local_cluster: node $i never listened on port $port" >&2
  cat "$LOG_DIR/node$i.log" >&2 || true
  exit 1
}

for i in 1 2 3; do
  start_node "$i"
done
for i in 1 2 3; do
  wait_listening "$i"
done

echo "local_cluster: 3 nodes up on ports ${BASE_PORT}-$((BASE_PORT + 2)) (logs in $LOG_DIR)"
echo "local_cluster: driving $SECTIONS sections ($CLIENTS clients, $KEYS keys)..."

if "$BIN/music-load" --peers "$PEERS" --sections "$SECTIONS" \
    --clients "$CLIENTS" --keys "$KEYS" \
    --online-sample "$ONLINE_SAMPLE" 2>&1 | tee "$LOG_DIR/load.log"; then
  # music-load exits 1 on a shortfall, an error, a counter mismatch or a
  # checker violation; what its exit cannot show is that the checker ran.
  if [[ "$ONLINE_SAMPLE" != "0" ]] && ! grep -q '^music-load: online: OK' "$LOG_DIR/load.log"; then
    echo "local_cluster: FAILED: no 'music-load: online: OK' line (the checker did not run)" >&2
    exit 1
  fi
  # Extract the machine-readable throughput line into the BENCH
  # trajectory artifact (sections/sec over real TCP sockets).
  grep '"kind":"benchLoad"' "$LOG_DIR/load.log" >"$LOG_DIR/BENCH_load.json" || true
  echo "local_cluster: wrote $LOG_DIR/BENCH_load.json"
  echo "local_cluster: OK"
else
  status=$?
  echo "local_cluster: FAILED (exit $status); node logs:" >&2
  tail -n 40 "$LOG_DIR"/node*.log >&2 || true
  exit "$status"
fi

if [[ "$KILL9" != "1" ]]; then
  exit 0
fi

# ---------------------------------------------------------------------------
# Pass 2: kill -9 one storage node while sections are in flight. With RF=3
# the surviving 2/3 quorum keeps every store operation live; quorum peeks
# keep lock-grant polling off the dead primary; the bounded retry budget
# absorbs the operations that were talking to the victim when it died. The
# load must still complete every section, verify the counters, and keep
# the streaming checker clean.
# ---------------------------------------------------------------------------
# Several times the first pass's work so the victim dies with plenty of
# sections still to go, even on a fast machine.
KILL9_SECTIONS="${KILL9_SECTIONS:-$((SECTIONS * 4))}"
echo "local_cluster: kill-9 pass: driving $KILL9_SECTIONS sections, then killing node 3..."

"$BIN/music-load" --peers "$PEERS" --sections "$KILL9_SECTIONS" \
  --clients "$CLIENTS" --keys "$KEYS" \
  --key-prefix kill9 --online-sample 1 --retries 40 --peek quorum \
  >"$LOG_DIR/load-kill9.log" 2>&1 &
load_pid=$!

# Let the load reach steady state, then hard-kill the last node (nodes 1
# and 2 stay up; node 1 also serves the key scans). No SIGTERM grace — the
# point is an abrupt process death mid-section.
sleep 0.5
victim="${pids[2]}"
kill -9 "$victim" 2>/dev/null || true
echo "local_cluster: killed node 3 (pid $victim)"

if wait "$load_pid"; then
  cat "$LOG_DIR/load-kill9.log"
  echo "local_cluster: kill-9 pass OK"
else
  status=$?
  echo "local_cluster: kill-9 pass FAILED (exit $status); load log:" >&2
  cat "$LOG_DIR/load-kill9.log" >&2 || true
  echo "local_cluster: surviving node logs:" >&2
  tail -n 40 "$LOG_DIR"/node[12].log >&2 || true
  exit "$status"
fi

if [[ "$FLASH" == "1" ]]; then
  # ---------------------------------------------------------------------------
  # Pass 3: flash crowd over real sockets. Every client converges on one hot
  # key for the middle half of its quota (the edges stay Zipfian θ=1.2), with
  # the contention-adaptive controller on: enqueue combining collapses the
  # same-site waiter storm into single LWT rounds and the admission guard
  # fast-rejects overflow instead of letting the enqueue LWTs livelock. The
  # run must complete every section against the surviving 2/3 quorum from
  # pass 2, verify the counters key by key, and keep the streaming checker
  # clean.
  # ---------------------------------------------------------------------------
  FLASH_SECTIONS="${FLASH_SECTIONS:-$SECTIONS}"
  FLASH_CLIENTS="${FLASH_CLIENTS:-$((CLIENTS * 2))}"
  echo "local_cluster: flash-crowd pass: $FLASH_SECTIONS sections, $FLASH_CLIENTS clients on one hot key..."

  if "$BIN/music-load" --peers "$PEERS" --sections "$FLASH_SECTIONS" \
      --clients "$FLASH_CLIENTS" --keys "$KEYS" \
      --key-prefix flash --zipf-theta 1.2 --flash-crowd \
      --online-sample 1 --retries 40 --peek quorum 2>&1 | tee "$LOG_DIR/load-flash.log"; then
    echo "local_cluster: flash-crowd pass OK"
  else
    status=$?
    echo "local_cluster: flash-crowd pass FAILED (exit $status); load log:" >&2
    cat "$LOG_DIR/load-flash.log" >&2 || true
    exit "$status"
  fi
fi

if [[ "$STOP" != "1" ]]; then
  exit 0
fi

# ---------------------------------------------------------------------------
# Pass 4: a hung node. kill -STOP freezes a node without closing its
# sockets: its kernel still completes connections and buffers requests
# until the buffers fill, but nothing reads them and nothing replies.
# Clients write frames from their executor thread, so a write to the hung
# node must give up within the transport's write bound rather than
# stall every other section; after that the client only probes the node,
# one request per new connection, instead of filling each new
# connection's buffers again. Node 3 (killed in pass 2) is restarted
# first. It comes back empty, since nodes keep their state in memory, but
# this pass's keys are new to every node, so it has forgotten nothing they
# need. Node 2 is then stopped mid-run, leaving nodes 1 and 3 as the 2/3
# quorum. The load must complete every section, verify the counters and
# keep the streaming checker clean; node 2 is continued at the end. The
# pass also requires that the transport reported at least one write to
# node 2 timing out, so it cannot pass without exercising the write bound.
# ---------------------------------------------------------------------------
# Fixed, not scaled by SECTIONS: it takes some thousands of sections to
# fill the few MiB of socket buffer each connection to the hung node holds,
# and only then does a write hit the transport's write bound. With the
# usual 4 MiB tcp_wmem ceiling the first write times out some 2 500
# sections after the stop, so 12 000 leaves a wide margin.
STOP_SECTIONS=12000
echo "local_cluster: hung-node pass: restarting node 3, driving $STOP_SECTIONS sections, then stopping node 2..."
start_node 3
wait_listening 3

"$BIN/music-load" --peers "$PEERS" --sections "$STOP_SECTIONS" \
  --clients "$CLIENTS" --keys "$KEYS" \
  --key-prefix stop --online-sample 1 --retries 40 --peek quorum \
  >"$LOG_DIR/load-stop.log" 2>&1 &
load_pid=$!

sleep 0.5
hung="${pids[1]}"
kill -STOP "$hung"
echo "local_cluster: stopped node 2 (pid $hung)"

status=0
wait "$load_pid" || status=$?
kill -CONT "$hung" 2>/dev/null || true
# music-load's transport reports each timeout on stderr (in the log).
timeouts=$(grep -c '^tcp: node 2: write timed out' "$LOG_DIR/load-stop.log" || true)
if [[ "$status" == "0" && "$timeouts" -gt 0 ]]; then
  cat "$LOG_DIR/load-stop.log"
  echo "local_cluster: hung-node pass OK ($timeouts writes to node 2 timed out)"
elif [[ "$status" == "0" ]]; then
  echo "local_cluster: hung-node pass FAILED: no write to node 2 timed out," \
    "so the write bound was never exercised; load log:" >&2
  cat "$LOG_DIR/load-stop.log" >&2 || true
  exit 1
else
  echo "local_cluster: hung-node pass FAILED (exit $status); load log:" >&2
  cat "$LOG_DIR/load-stop.log" >&2 || true
  echo "local_cluster: node logs:" >&2
  tail -n 40 "$LOG_DIR"/node*.log >&2 || true
  exit "$status"
fi
