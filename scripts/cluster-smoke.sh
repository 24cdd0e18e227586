#!/usr/bin/env bash
# Cluster smoke test: every remote path figure regeneration and sweeps
# use, on real processes. Two visasimd daemons come up; the script asserts
# end to end —
#   1. `experiments -backends D2` (one daemon) prints the same Fig. 5
#      output and CSV as a local `experiments` run;
#   2. the `experiments cells` target over a small cells file prints the
#      same bytes locally and with -backends D2, and with -backends
#      reports D2's member line on stderr;
#   3. an `experiments -backends D1,D2 -store DIR -resume` run of Fig. 5,
#      with D1 killed by SIGKILL once the coordinator's store holds some
#      but not all cells, still finishes, its in-flight cells failing over
#      to D2 when their job streams break, and its output and CSV are
#      byte-identical to a local run
#      (which daemon ran a cell, and how often it was retried, never
#      changes result bytes), and the `experiments health` target then
#      reports D1 down and D2 healthy with exit status 1;
#   4. with both daemons gone, a -resume re-run produces the same bytes
#      again, served from the store alone.
# Used by `make cluster-smoke` and the CI cluster-smoke job.
set -euo pipefail

cd "$(dirname "$0")/.."

D1="127.0.0.1:19432"
D2="127.0.0.1:19433"
BUDGET=200000
# The single-daemon check runs at its own budget, so D2's result cache holds
# none of the failover sweep's cells: cached cells would answer at once and
# leave nothing in flight when D1 is killed.
ONE_DAEMON_BUDGET=100000
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

# Ground truth: the same figure run in-process, at both budgets.
"$TMP/experiments" -n "$BUDGET" -csv "$TMP/local" "$TARGET" >"$TMP/local.out" 2>/dev/null
"$TMP/experiments" -n "$ONE_DAEMON_BUDGET" -csv "$TMP/local-s" "$TARGET" >"$TMP/local-s.out" 2>/dev/null

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

# One daemon: `experiments -backends` with a single URL must match the
# in-process run.
"$TMP/experiments" -n "$ONE_DAEMON_BUDGET" -backends "http://$D2" -csv "$TMP/server" \
    "$TARGET" >"$TMP/server.out" 2>"$TMP/server.log" || {
    echo "cluster-smoke: experiments -backends (one daemon) failed"; cat "$TMP/server.log"; exit 1; }
cmp "$TMP/local-s.out" "$TMP/server.out" || {
    echo "cluster-smoke: one-daemon output diverged from local run"; exit 1; }
cmp "$TMP/local-s/$TARGET.csv" "$TMP/server/$TARGET.csv" || {
    echo "cluster-smoke: one-daemon CSV diverged from local run"; exit 1; }

# The cells target: the same cells run in-process and through the
# coordinator must print the same bytes.
cat >"$TMP/cells.json" <<'EOF'
{"cells":[
  {"key":"gcc-base","config":{"Benchmarks":["gcc"],"Scheme":0,"MaxInstructions":50000}},
  {"key":"mcf-visa","config":{"Benchmarks":["mcf"],"Scheme":1,"MaxInstructions":50000}},
  {"key":"gcc-mcf-opt2","config":{"Benchmarks":["gcc","mcf"],"Scheme":3,"MaxInstructions":50000}}
]}
EOF
"$TMP/experiments" cells <"$TMP/cells.json" >"$TMP/cells-local.out" 2>"$TMP/cells-local.log" || {
    echo "cluster-smoke: experiments cells failed"; cat "$TMP/cells-local.log"; exit 1; }
"$TMP/experiments" -backends "http://$D2" cells <"$TMP/cells.json" \
    >"$TMP/cells-remote.out" 2>"$TMP/cells-remote.log" || {
    echo "cluster-smoke: experiments -backends cells failed"; cat "$TMP/cells-remote.log"; exit 1; }
grep -q "^experiments: backend http://$D2 healthy, 3 dispatched$" "$TMP/cells-remote.log" || {
    echo "cluster-smoke: experiments -backends cells printed no member line for D2"; cat "$TMP/cells-remote.log"; exit 1; }
grep -q '"key": "gcc-mcf-opt2"' "$TMP/cells-local.out" || {
    echo "cluster-smoke: experiments cells printed no results"; cat "$TMP/cells-local.out"; exit 1; }
cmp "$TMP/cells-local.out" "$TMP/cells-remote.out" || {
    echo "cluster-smoke: experiments -backends cells output diverged from the local run"; exit 1; }

# Two daemons, one killed mid-sweep.
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

# The health target: the killed daemon is down, the survivor healthy, and
# the exit status says not every backend is serviceable.
HEALTH_RC=0
"$TMP/experiments" -backends "http://$D1,http://$D2" health >"$TMP/health.out" 2>"$TMP/health.log" || HEALTH_RC=$?
[ "$HEALTH_RC" = 1 ] || {
    echo "cluster-smoke: experiments health exited $HEALTH_RC with D1 killed, want 1"; cat "$TMP/health.out" "$TMP/health.log"; exit 1; }
grep -q "^http://$D1 .* DOWN: " "$TMP/health.out" || {
    echo "cluster-smoke: experiments health did not report D1 DOWN"; cat "$TMP/health.out"; exit 1; }
grep -q "^http://$D2 .* healthy$" "$TMP/health.out" || {
    echo "cluster-smoke: experiments health did not report D2 healthy"; cat "$TMP/health.out"; exit 1; }

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

echo "cluster-smoke: OK (one-daemon experiments -backends and the cells target byte-identical to local; $TARGET at $BUDGET: daemon killed with $AT_KILL of $TOTAL cells stored, output byte-identical to local, health reports it down, store-only re-run identical)"
