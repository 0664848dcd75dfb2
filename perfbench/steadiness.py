#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py [--runs 10] [--workloads uni_index,...]
                                    [--seconds N]

Run from the repository root. Makes two separate sets of runs of every
workload, each run a fresh `perfbench/run.py` process with tracing off, set
A to its end before set B starts. Both sets use seeds 1..runs, one seed per
run, so a set's spread holds the differences between the seeds' inputs as
well as run-to-run noise, while the gap between the sets holds noise alone.
For each end-to-end metric it prints each set's median and quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median, and the gap
between the set medians in the metric's worse direction, next to the bound
BENCHMARK.json gives it. A metric passes when both spreads and the size of
the gap, whichever set is ahead, are within the bound; the bounds were
chosen so that the spreads seen stay below a third of them. It also checks
that the failed share of operations is identical in the two sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {w: {"A": [], "B": []} for w in workloads}
    for label in ("A", "B"):
        for i in range(args.runs):
            for workload in workloads:
                result = run_once(workload, 1 + i, args.seconds)
                results[workload][label].append(result)
                print(f"set {label} run {i + 1}/{args.runs} {workload}: "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':13} {'metric':14} {'bound':>6} | "
          f"{'A median':>10} {'A q1..q3':>21} {'spread':>7} | "
          f"{'B median':>10} {'B q1..q3':>21} {'spread':>7} | "
          f"{'gap':>7}  verdict")
    for workload in workloads:
        sets = results[workload]
        shares = {label: sum(r["failed"] for r in runs) /
                  sum(r["attempted"] for r in runs)
                  for label, runs in sets.items()}
        if shares["A"] != shares["B"]:
            ok = False
            print(f"{workload}: failed share differs: {shares}")
        for metric in config["end_to_end"]:
            name = metric["name"]
            values = {label: [r["metrics"][name]["value"] for r in runs
                              if name in r["metrics"]]
                      for label, runs in sets.items()}
            if not values["A"]:
                continue
            a, b = summarize(values["A"]), summarize(values["B"])
            change = (b["median"] - a["median"]) / a["median"]
            gap = change if metric["better"] == "lower" else -change
            bound = metric["bound"]
            passed = max(a["spread"], b["spread"], abs(gap)) <= bound
            ok = ok and passed
            margin = max(a["spread"], b["spread"], abs(gap)) < bound / 3
            verdict = ("ok" if margin else "ok, tight") if passed else "FAIL"
            print(f"{workload:13} {name:14} {bound:6.3f} | "
                  f"{a['median']:10.4g} {a['q1']:10.4g}..{a['q3']:<10.4g} "
                  f"{a['spread']:7.3f} | "
                  f"{b['median']:10.4g} {b['q1']:10.4g}..{b['q3']:<10.4g} "
                  f"{b['spread']:7.3f} | {gap:+7.3f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
