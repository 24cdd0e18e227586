#!/usr/bin/env bash
# Cluster smoke test: the multi-daemon path figure regeneration uses. Two
# visasimd daemons serve an `experiments -backends D1,D2 -store DIR -resume`
# run of Fig. 5; one daemon is killed with SIGKILL once the coordinator's
# store holds some but not all cells. The script asserts end to end —
#   1. the sweep still finishes, its in-flight cells failing over to the
#      surviving daemon, and its output and CSV are byte-identical to a
#      local `experiments` run (which daemon ran a cell, and how often it
#      was retried, never changes result bytes);
#   2. with both daemons gone, a -resume re-run produces the same bytes
#      again, served from the store alone.
# Used by `make cluster-smoke` and the CI cluster-smoke job.
set -euo pipefail

cd "$(dirname "$0")/.."

D1="127.0.0.1:19432"
D2="127.0.0.1:19433"
BUDGET=200000
TARGET=fig5
TMP="$(mktemp -d)"
STORE="$TMP/store"

cleanup() {
    [ -n "${D1PID:-}" ] && kill "$D1PID" 2>/dev/null || true
    [ -n "${D2PID:-}" ] && kill "$D2PID" 2>/dev/null || true
    [ -n "${EXPID:-}" ] && kill "$EXPID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/visasimd" ./cmd/visasimd
go build -o "$TMP/experiments" ./cmd/experiments

# Ground truth: the same figure run in-process.
"$TMP/experiments" -n "$BUDGET" -csv "$TMP/local" "$TARGET" >"$TMP/local.out" 2>/dev/null

"$TMP/visasimd" -addr "$D1" 2>"$TMP/d1.log" &
D1PID=$!
"$TMP/visasimd" -addr "$D2" 2>"$TMP/d2.log" &
D2PID=$!
for addr in "$D1" "$D2"; do
    for i in $(seq 1 50); do
        curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
        [ "$i" = 50 ] && { echo "cluster-smoke: daemon $addr never came up"; exit 1; }
        sleep 0.2
    done
done

stored() { find "$STORE" -name '*.json' 2>/dev/null | wc -l; }

"$TMP/experiments" -n "$BUDGET" -backends "http://$D1,http://$D2" \
    -store "$STORE" -resume -csv "$TMP/remote" -log-level warn \
    "$TARGET" >"$TMP/remote.out" 2>"$TMP/remote.log" &
EXPID=$!

# Kill one daemon as soon as the first cells are checkpointed, while the
# rest of the sweep is still queued or in flight.
for i in $(seq 1 600); do
    [ "$(stored)" -gt 0 ] && break
    kill -0 "$EXPID" 2>/dev/null || break
    [ "$i" = 600 ] && { echo "cluster-smoke: no cell was ever checkpointed"; cat "$TMP/remote.log"; exit 1; }
    sleep 0.05
done
kill -9 "$D1PID"
wait "$D1PID" 2>/dev/null || true
D1PID=
AT_KILL=$(stored)

wait "$EXPID" || { echo "cluster-smoke: sweep failed after a daemon was killed"; cat "$TMP/remote.log"; exit 1; }
EXPID=
TOTAL=$(stored)
[ "$AT_KILL" -gt 0 ] && [ "$AT_KILL" -lt "$TOTAL" ] || {
    echo "cluster-smoke: daemon killed with $AT_KILL of $TOTAL cells stored; want some but not all"; exit 1; }
grep -q "cell failing over" "$TMP/remote.log" || {
    echo "cluster-smoke: no cell failed over from the killed daemon"; cat "$TMP/remote.log"; exit 1; }

cmp "$TMP/local.out" "$TMP/remote.out" || {
    echo "cluster-smoke: dispatched output diverged from local run"; exit 1; }
cmp "$TMP/local/$TARGET.csv" "$TMP/remote/$TARGET.csv" || {
    echo "cluster-smoke: dispatched CSV diverged from local run"; exit 1; }

# Store-only re-run: no daemon is left, so every cell must come from the
# store.
kill "$D2PID"
wait "$D2PID" 2>/dev/null || true
D2PID=
"$TMP/experiments" -n "$BUDGET" -backends "http://$D1,http://$D2" \
    -store "$STORE" -resume -csv "$TMP/resumed" \
    "$TARGET" >"$TMP/resumed.out" 2>"$TMP/resumed.log" || {
    echo "cluster-smoke: store-only re-run failed"; cat "$TMP/resumed.log"; exit 1; }
cmp "$TMP/local.out" "$TMP/resumed.out" || {
    echo "cluster-smoke: store-only output diverged from local run"; exit 1; }
cmp "$TMP/local/$TARGET.csv" "$TMP/resumed/$TARGET.csv" || {
    echo "cluster-smoke: store-only CSV diverged from local run"; exit 1; }
[ "$(stored)" = "$TOTAL" ] || { echo "cluster-smoke: store changed during the store-only re-run"; exit 1; }

echo "cluster-smoke: OK ($TARGET at $BUDGET: daemon killed with $AT_KILL of $TOTAL cells stored, output byte-identical to local, store-only re-run identical)"
