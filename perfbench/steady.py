#!/usr/bin/env python3
"""Steadiness report for the visasim benchmark.

Runs every workload repeatedly, each run with another seed, and prints each
end-to-end metric's median, quartiles and spread (the distance between the
quartiles as a share of the median, by statistics.quantiles(values, n=4)).
With --sets 2 it repeats the whole series and also prints how far the
second set's median moved from the first's.

Two verdicts close the report, both read against BENCHMARK.json's bounds:

- accepted: every spread is within its metric's bound, and no set's median
  is worse than the first set's by more than the bound (in the metric's
  "better" direction). setup_s is held to the drift rule only: its spread
  measures how set-up time varies between seeds and runs, which the bound
  does not cover; a regression in it shows as drift of its median.
- steady: every spread, setup_s's included, is below a third of its bound.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads figs --runs 5 --first-seed 11

Run from the repository root. Raw results go to
.bench_build/steady/<workload>-set<k>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
    lines = out.stdout.decode().strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr.decode())
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    outdir = os.path.join(ROOT, ".bench_build", "steady")
    os.makedirs(outdir, exist_ok=True)

    accepted = steady = True
    for w in workloads:
        medians = []
        for k in range(args.sets):
            results = []
            with open(os.path.join(outdir, f"{w}-set{k + 1}.jsonl"), "w") as raw:
                for i in range(args.runs):
                    r = run_once(w, args.first_seed + i, bench["run_seconds"])
                    raw.write(json.dumps(r) + "\n")
                    results.append(r)
                    if not r["correct"] or r["failed"]:
                        accepted = False
                        print(f"{w} seed {args.first_seed + i}: "
                              f"{r['failed']} of {r['attempted']} failed")
            print(f"\n{w}, set {k + 1}: {args.runs} runs, seeds "
                  f"{args.first_seed}..{args.first_seed + args.runs - 1}")
            print(f"  {'metric':<18} {'q1':>12} {'median':>12} {'q3':>12} "
                  f"{'spread':>8} {'bound/3':>8}")
            meds = {}
            for name, m in metrics.items():
                vals = [r["metrics"][name]["value"] for r in results]
                q1, med, q3, sp = spread(vals)
                meds[name] = med
                flag = ""
                if sp > m["bound"] and name != "setup_s":
                    flag, accepted = "  OVER BOUND", False
                elif sp >= m["bound"] / 3:
                    flag = "  wide"
                if sp >= m["bound"] / 3:
                    steady = False
                print(f"  {name:<18} {q1:12.4f} {med:12.4f} {q3:12.4f} "
                      f"{sp:8.2%} {m['bound'] / 3:8.2%}{flag}")
            medians.append(meds)
        for k in range(1, len(medians)):
            print(f"  drift of set {k + 1}'s median from set 1's:")
            for name, m in metrics.items():
                a, b = medians[0][name], medians[k][name]
                d = (b - a) / a
                worse = d if m["better"] == "lower" else -d
                flag = ""
                if worse > m["bound"]:
                    flag, accepted = "  WORSE BEYOND BOUND", False
                print(f"    {name:<18} {d:+8.2%} (bound {m['bound']:.0%}){flag}")
    print("\naccepted" if accepted else "\nNOT accepted")
    print("steady" if steady else "NOT steady: some spread is at or above a third of its bound")
    return 0 if accepted else 1


if __name__ == "__main__":
    sys.exit(main())
