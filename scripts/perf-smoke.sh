#!/usr/bin/env bash
# Perf smoke test: the throughput-floor gate. Runs the repository
# benchmark (perfbench) on its mem-long and figs workloads, seed 1,
# untraced, and fails unless each run's result line reports
#   - correct: true (at seed 1 every cell's result digest must match
#     perfbench/digests.json, so a behaviour change fails here too);
#   - failed: 0;
#   - sim_minstr_per_s (committed Minstr/s in the core loop) at or above
#     the workload's floor;
#   - peak_rss_mb (the benchmark process's VmHWM) at or below the
#     workload's ceiling.
#
# Lengths: long enough that one full round of the workload's batches
# (6 MEM cells at 1M instructions; 9 mixes x 6 schemes at 200k) finishes
# on a 2-vCPU host, so every cell's digest is checked. A round takes about
# 4.7-5.5 s for mem-long and 8.9-9.8 s for figs there.
#
# Floors: one third of the median of six runs at these lengths on a
# 2-vCPU Intel Xeon host, rounded down to a tenth. The runs read
# 1.10-1.26 Minstr/s (median 1.18) for mem-long and 1.10-1.22 (median
# 1.13) for figs, so only a real core-loop regression trips the gate, not
# runner jitter.
#
# Ceilings: one and a half times the median peak RSS of six runs at these
# lengths on a 2-vCPU Intel Xeon host, rounded up to a whole MB. The runs
# read 18.4-19.8 MB (median 18.8) for mem-long and 18.4-19.4 MB (median
# 18.6) for figs, so a process that retains a lot more than it should
# (a cache that stops sharing or evicting, a per-cell leak) fails, and
# runner jitter does not.
#
# Used by `make perf-smoke` and the CI perf job. Run from anywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

MEM_LONG_SECONDS=8
MEM_LONG_FLOOR=0.3
MEM_LONG_RSS_CEILING=29
FIGS_SECONDS=15
FIGS_FLOOR=0.3
FIGS_RSS_CEILING=28

fail=0

# gate WORKLOAD SECONDS FLOOR CEILING runs one workload and checks its
# result line.
gate() {
    local workload=$1 seconds=$2 floor=$3 ceiling=$4 result
    echo "perf-smoke: $workload, seed 1, ${seconds}s"
    result=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds "$seconds" --trace 0 </dev/null | tail -n 1)
    if ! python3 -c '
import json, sys
workload, floor, ceiling, line = sys.argv[1], float(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
try:
    r = json.loads(line)
    rate = r["metrics"]["sim_minstr_per_s"]["value"]
    rss = r["metrics"]["peak_rss_mb"]["value"]
    correct, attempted, failed = r["correct"], r["attempted"], r["failed"]
except (ValueError, KeyError, TypeError) as e:
    sys.exit("perf-smoke: %s: unreadable result line (%s): %r" % (workload, e, line))
print("perf-smoke: %s: %.3f Minstr/s (floor %.2f), peak RSS %.1f MB (ceiling %.0f), correct %s, %d/%d operations failed"
      % (workload, rate, floor, rss, ceiling, str(correct).lower(), failed, attempted))
problems = []
if correct is not True:
    problems.append("results differ from perfbench/digests.json")
if failed != 0:
    problems.append("%d failed operations" % failed)
if rate < floor:
    problems.append("%.3f Minstr/s is below the %.2f floor" % (rate, floor))
if rss > ceiling:
    problems.append("peak RSS %.1f MB is above the %.0f MB ceiling" % (rss, ceiling))
if problems:
    sys.exit("perf-smoke: %s FAILED: %s" % (workload, "; ".join(problems)))
' "$workload" "$floor" "$ceiling" "$result"; then
        fail=1
    fi
}

gate mem-long "$MEM_LONG_SECONDS" "$MEM_LONG_FLOOR" "$MEM_LONG_RSS_CEILING"
gate figs "$FIGS_SECONDS" "$FIGS_FLOOR" "$FIGS_RSS_CEILING"

if [ "$fail" != 0 ]; then
    exit 1
fi
echo "perf-smoke: OK"
