#!/usr/bin/env python3
"""Steadiness check: run each workload several times, one seed per run,
and print every end-to-end metric's median, quartiles and spread beside
its bound from BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workloads serve-zipf,match-scan]
                                [--first-seed 1] [--seconds N]

The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4); a metric is steady when its spread is
within its bound (setup_s excepted: only its median is compared between
sets of runs).  Results, with each run's '#' lines, also go to
perfbench/_out/steady-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    unsteady = 0
    for w in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit("steady: %s seed %d failed:\n%s" % (w, seed, out.stderr[-2000:]))
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            runs.append({"seed": seed, **res, "info": [l for l in lines[:-1] if l.startswith("#")]})
            print("%s seed %d: attempted %d failed %d  %s" % (
                w, seed, res["attempted"], res["failed"],
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())), flush=True)
        with open(os.path.join(HERE, "_out", "steady-%s.json" % w), "w") as f:
            json.dump(runs, f, indent=1)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("%s: failed share %s" % (w, shares))
        print("%-14s %-12s %12s %12s %12s %8s %6s" % ("workload", "metric", "q1", "median", "q3", "spread", "bound"))
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread > m["bound"]:
                flag, unsteady = "  OVER BOUND", unsteady + 1
            elif name != "setup_s" and spread > m["bound"] / 3:
                flag = "  over a third"
            print("%-14s %-12s %12.5g %12.5g %12.5g %8.3f %6.2f%s" % (w, name, q1, med, q3, spread, m["bound"], flag))
        print(flush=True)
    sys.exit(1 if unsteady else 0)


if __name__ == "__main__":
    main()
