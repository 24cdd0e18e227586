#!/usr/bin/env bash
# Cluster smoke test: boot a visasimcoord with ZERO static backends, let two
# visasimd daemons join by self-registration, run two tenanted sweeps of
# mixed priority classes through the control plane, drain one backend while
# work is in flight, and assert the promises end to end —
#   1. both sweep outputs are byte-identical to a local harness run
#      (scheduling, routing and drains never change result bytes),
#   2. the drained backend leaves exactly one member in the pool,
#   3. the coordinator's structured log carries every membership transition
#      (joined x2, draining, drained) under one cluster- correlation scope.
# Used by `make cluster-smoke` and the CI cluster-smoke job.
set -euo pipefail

cd "$(dirname "$0")/.."

COORD="127.0.0.1:19431"
D1="127.0.0.1:19432"
D2="127.0.0.1:19433"
TMP="$(mktemp -d)"
CLOG="$TMP/visasimcoord.log"

cleanup() {
    [ -n "${D1PID:-}" ] && kill "$D1PID" 2>/dev/null || true
    [ -n "${D2PID:-}" ] && kill "$D2PID" 2>/dev/null || true
    [ -n "${CPID:-}" ] && kill "$CPID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/visasimcoord" ./cmd/visasimcoord
go build -o "$TMP/visasimd" ./cmd/visasimd
go build -o "$TMP/visasimctl" ./cmd/visasimctl

cat >"$TMP/tenants.json" <<'EOF'
{"tenants": [
  {"id": "papers", "key": "pk-papers", "class": "interactive"},
  {"id": "batch", "key": "pk-batch", "class": "bulk"}
]}
EOF

# Two disjoint sweeps (unique budgets => unique cell keys) big enough that a
# drain lands while cells are still in flight.
{
    echo '{"cells":['
    for i in 1 2 3 4 5 6; do
        [ "$i" != 1 ] && echo ','
        printf '{"key":"int-%d","config":{"Benchmarks":["gcc","mcf"],"Scheme":1,"MaxInstructions":%d}}' \
            "$i" $((300000 + i))
    done
    echo ']}'
} >"$TMP/cells-interactive.json"
{
    echo '{"cells":['
    for i in 1 2 3 4 5 6; do
        [ "$i" != 1 ] && echo ','
        printf '{"key":"blk-%d","config":{"Benchmarks":["vpr","perlbmk"],"Scheme":2,"MaxInstructions":%d}}' \
            "$i" $((300000 + i))
    done
    echo ']}'
} >"$TMP/cells-bulk.json"

# Coordinator with an EMPTY static pool: membership comes only from daemon
# self-registration.
"$TMP/visasimcoord" -addr "$COORD" -tenants "$TMP/tenants.json" \
    -routing affinity \
    -log-format json -log-level debug 2>"$CLOG" &
CPID=$!

for i in $(seq 1 50); do
    curl -sf "http://$COORD/healthz" >/dev/null 2>&1 && break
    [ "$i" = 50 ] && { echo "cluster-smoke: coordinator never came up"; cat "$CLOG"; exit 1; }
    sleep 0.2
done

"$TMP/visasimd" -addr "$D1" -register "http://$COORD" 2>"$TMP/d1.log" &
D1PID=$!
"$TMP/visasimd" -addr "$D2" -register "http://$COORD" 2>"$TMP/d2.log" &
D2PID=$!

for i in $(seq 1 50); do
    N=$(curl -sf "http://$COORD/v1/backends" | grep -o '"url"' | wc -l || true)
    [ "$N" = 2 ] && break
    [ "$i" = 50 ] && { echo "cluster-smoke: expected 2 registered backends, have $N"; cat "$CLOG"; exit 1; }
    sleep 0.2
done

# Mixed-priority load from both tenants, concurrently.
"$TMP/visasimctl" sweep -coord "http://$COORD" -key pk-papers -priority interactive \
    -results-only -cells "$TMP/cells-interactive.json" >"$TMP/out-interactive.json" &
SW1=$!
"$TMP/visasimctl" sweep -coord "http://$COORD" -key pk-batch -priority bulk \
    -results-only -cells "$TMP/cells-bulk.json" >"$TMP/out-bulk.json" &
SW2=$!

# Drain one backend mid-flight: no new cells route to it, in-flight cells
# finish, then it leaves — the sweeps above must not lose a single cell.
sleep 0.3
"$TMP/visasimctl" drain -coord "http://$COORD" "http://$D1" >/dev/null || {
    echo "cluster-smoke: drain failed"; cat "$CLOG"; exit 1; }

wait "$SW1" || { echo "cluster-smoke: interactive sweep failed"; cat "$CLOG"; exit 1; }
wait "$SW2" || { echo "cluster-smoke: bulk sweep failed"; cat "$CLOG"; exit 1; }

# Byte-parity: the control plane must produce exactly the bytes a local
# harness run produces.
"$TMP/visasimctl" sweep -local -results-only -cells "$TMP/cells-interactive.json" >"$TMP/local-interactive.json"
"$TMP/visasimctl" sweep -local -results-only -cells "$TMP/cells-bulk.json" >"$TMP/local-bulk.json"
cmp "$TMP/out-interactive.json" "$TMP/local-interactive.json" || {
    echo "cluster-smoke: interactive sweep diverged from local run"; exit 1; }
cmp "$TMP/out-bulk.json" "$TMP/local-bulk.json" || {
    echo "cluster-smoke: bulk sweep diverged from local run"; exit 1; }

N=$(curl -sf "http://$COORD/v1/backends" | grep -o '"url"' | wc -l || true)
[ "$N" = 1 ] || { echo "cluster-smoke: expected 1 backend after drain, have $N"; cat "$CLOG"; exit 1; }

# Tenant accounting survived the round trip.
"$TMP/visasimctl" tenants -server "http://$COORD" >"$TMP/tenants.out"
for want in papers batch; do
    grep -q "^$want " "$TMP/tenants.out" || {
        echo "cluster-smoke: tenants table missing $want"; cat "$TMP/tenants.out"; exit 1; }
done

# Membership transitions are logged under one cluster- correlation scope.
SCOPE=$(sed -n 's/.*"scope":"\(cluster-[^"]*\)".*/\1/p' "$CLOG" | sort -u)
[ "$(echo "$SCOPE" | wc -l)" = 1 ] && [ -n "$SCOPE" ] || {
    echo "cluster-smoke: expected one cluster- scope, got: $SCOPE"; cat "$CLOG"; exit 1; }
for want in "backend joined" "backend draining" "backend drained"; do
    grep -q "\"msg\":\"$want\".*\"scope\":\"$SCOPE\"" "$CLOG" || {
        echo "cluster-smoke: coordinator log missing '$want' under $SCOPE"; cat "$CLOG"; exit 1; }
done
[ "$(grep -c '"msg":"backend joined"' "$CLOG")" = 2 ] || {
    echo "cluster-smoke: expected exactly 2 join lines"; cat "$CLOG"; exit 1; }

echo "cluster-smoke: OK (2 registered backends, mixed-priority sweeps byte-identical to local, drain lost no cells, scope $SCOPE)"
