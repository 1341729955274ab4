#!/usr/bin/env python3
"""Runs one workload under several seeds and reports, per metric, the
median and the quartile spread (Q3 - Q1 as a share of the median, from
statistics.quantiles(values, n=4)) next to the metric's bound in
BENCHMARK.json.

    python3 perfbench/spread.py --workload oneshot-seq --seeds 1-10 [--trace 0] [--json OUT]

Run from the checkout root. --json writes the per-seed values and the
summary, the form perfbench/trajectory.json keeps.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "exit": out.returncode, **result})
        print("seed %d: correct %s, failed %d/%d" % (
            seed, result["correct"], result["failed"], result["attempted"]), flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        bound = bounds.get(name)
        print("%-32s median %14.6g %-5s spread %6.3f  bound %s%s" % (
            name, med, summary[name]["unit"], spread, bound,
            "  OVER" if bound is not None and spread > bound else ""))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary}, fh, indent=1)
    return 0 if all(r["correct"] and r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
