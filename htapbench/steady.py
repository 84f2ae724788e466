#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 htapbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
                                [--first-seed 1] [--seconds S]

Runs every workload --runs times per set, each run with its own seed, and
prints per set each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median, with Python's
statistics.quantiles(n=4)). It then reports whether the sets agree with the
bounds in BENCHMARK.json: every spread except setup_s's within its bound,
no later set's median worse than the first set's by more than the bound,
and the same share of failed operations in every set. The bounds in
BENCHMARK.json are set from this tool's output; while tuning, aim for
spreads below a third of each bound. Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "htapbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stdout + res.stderr)
        sys.exit("run failed: %s seed %d (exit %d)" % (workload, seed, res.returncode))
    result = json.loads(lines[-1])
    steal = [l.split(":")[1].strip().rstrip("%") for l in lines
             if l.startswith("cpu steal during timing:")]
    result["steal_pct"] = float(steal[0]) if steal else 0.0
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--workloads", default="")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0)
    args = p.parse_args()
    sys.stdout.reconfigure(line_buffering=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])

    ok = True
    seed = args.first_seed
    for wl in workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for _ in range(args.runs):
                results.append(run_once(wl, seed, seconds))
                seed += 1
            sets.append(results)
        print("\n== %s (%d sets x %d runs, %gs each)" % (wl, args.sets, args.runs, seconds))
        print("%-20s %4s %12s %12s %12s %8s %6s %s" %
              ("metric", "set", "median", "q1", "q3", "spread", "bound", "verdict"))
        for m in metrics:
            first_med = None
            for s, results in enumerate(sets):
                vals = [r["metrics"][m["name"]]["value"] for r in results]
                med, q1, q3, spread = summarize(vals)
                notes = []
                if m["name"] != "setup_s" and spread > m["bound"]:
                    notes.append("SPREAD>BOUND")
                    ok = False
                elif spread > m["bound"] / 3:
                    notes.append("spread>bound/3")
                if first_med is None:
                    first_med = med
                else:
                    worse = ((med - first_med) / first_med if m["better"] == "lower"
                             else (first_med - med) / first_med)
                    notes.append("shift %+.3f" % -worse)
                    if worse > m["bound"]:
                        notes.append("MEDIAN SHIFT>BOUND")
                        ok = False
                print("%-20s %4d %12.4f %12.4f %12.4f %8.4f %6.2f %s" %
                      (m["name"], s + 1, med, q1, q3, spread, m["bound"],
                       " ".join(notes)))
        shares = sorted({(sum(r["failed"] for r in res),
                          sum(r["attempted"] for r in res)) for res in sets})
        fail_shares = {f / a for f, a in shares}
        correct = all(r["correct"] for res in sets for r in res)
        print("failed/attempted per set: %s; all correct: %s" %
              (", ".join("%d/%d" % fa for fa in shares), correct))
        print("cpu steal during timing, median per set: %s" %
              ", ".join("%.1f%%" % statistics.median(r["steal_pct"] for r in res)
                        for res in sets))
        if len(fail_shares) > 1 or not correct:
            ok = False
    print("\nsteadiness: %s" % ("PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
