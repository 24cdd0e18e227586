#!/usr/bin/env bash
# Observability smoke test: boot visasimd, run one cell with a known sweep
# correlation ID, wait for it by reading the job's event stream (the one
# way to wait for a job), and assert the two promises end to end —
#   1. GET /metrics/prom serves valid Prometheus text including histograms,
#   2. the submitted sweep ID appears in the daemon's structured logs.
# Used by `make obs-smoke` and the CI obs-smoke job.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18417"
SWEEP="sweep-obs-smoke-$$"
TMP="$(mktemp -d)"
LOG="$TMP/visasimd.log"
BIN="$TMP/visasimd"

cleanup() {
    [ -n "${DPID:-}" ] && kill "$DPID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/visasimd
"$BIN" -addr "$ADDR" -log-format json -log-level debug 2>"$LOG" &
DPID=$!

for i in $(seq 1 50); do
    curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
    [ "$i" = 50 ] && { echo "obs-smoke: daemon never came up"; cat "$LOG"; exit 1; }
    sleep 0.2
done

ACK=$(curl -sf "http://$ADDR/v1/sweeps" \
    -H "Content-Type: application/json" \
    -H "X-Visasim-Sweep: $SWEEP" \
    -d '{"cells":[{"key":"smoke","config":{"Benchmarks":["gcc"],"Scheme":1,"MaxInstructions":20000}}]}')
JOB=$(printf '%s' "$ACK" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
STREAM=$(printf '%s' "$ACK" | sed -n 's/.*"stream":"\([^"]*\)".*/\1/p')
[ -n "$JOB" ] && [ -n "$STREAM" ] || {
    echo "obs-smoke: submit returned no job ID or stream: $ACK"; cat "$LOG"; exit 1; }

# One bounded read of the stream: it ends with the job, so its last line
# must be the "end" event of a done job.
EVENTS="$TMP/stream.ndjson"
curl -sfN --max-time 60 "http://$ADDR$STREAM" >"$EVENTS" || {
    echo "obs-smoke: stream read failed or timed out"; cat "$EVENTS"; cat "$LOG"; exit 1; }
LAST=$(tail -n 1 "$EVENTS")
case "$LAST" in
    *'"type":"end"'*'"state":"done"'*) ;;
    *) echo "obs-smoke: stream did not end with a done end event: $LAST"; cat "$LOG"; exit 1 ;;
esac
grep -q '"type":"cell"' "$EVENTS" || {
    echo "obs-smoke: stream carried no cell event"; cat "$EVENTS"; exit 1; }

PROM="$TMP/metrics.prom"
curl -sf "http://$ADDR/metrics/prom" >"$PROM"
for want in \
    "# TYPE visasimd_jobs_done_total counter" \
    "visasimd_jobs_done_total 1" \
    "# TYPE visasimd_simulate_seconds histogram" \
    'visasimd_simulate_seconds_bucket{le="+Inf"} 1' \
    "visasimd_queue_wait_seconds_count 1"; do
    grep -qF "$want" "$PROM" || {
        echo "obs-smoke: /metrics/prom missing: $want"; cat "$PROM"; exit 1; }
done

grep -q "\"sweep\":\"$SWEEP\"" "$LOG" || {
    echo "obs-smoke: daemon log does not carry sweep ID $SWEEP"; cat "$LOG"; exit 1; }
grep -q "job finished" "$LOG" || {
    echo "obs-smoke: daemon log has no 'job finished' line"; cat "$LOG"; exit 1; }

echo "obs-smoke: OK (job $JOB, sweep $SWEEP correlated; Prometheus endpoint valid)"
