#!/usr/bin/env python3
"""Calibrates the benchmark's run-to-run spread and regression bounds.

Runs the command in BENCHMARK.json on every workload in two interleaved
sets, each run with its own seed, and writes per workload and end-to-end
metric the values, median, quartiles and spread (Q3 - Q1 over the
median, quartiles as statistics.quantiles(values, n=4) gives them) of
each set, how far the second set's median sits from the first's, and
the spread of the figures as measured, before the host-speed correction.

    python3 bench/calibrate.py --runs 10 --out bench/calibration.json

Run it from the root of a checkout; every run builds through bench/run.sh.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per workload in each set")
    ap.add_argument("--out", default="bench/calibration.json")
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {w: [{m: [] for m in metrics}, {m: [] for m in metrics}] for w in names}
    raws = {w: [{m: [] for m in metrics}, {m: [] for m in metrics}] for w in names}
    walls = {w: [] for w in names}
    report_path = os.path.join(".bench_build", "calibrate-run.json")
    for i in range(args.runs):
        for s in (0, 1):
            for w in names:
                seed = 1 + s * args.runs + i
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]), "--trace", "0",
                                          "--out", report_path]
                t0 = time.time()
                proc = subprocess.run(cmd, capture_output=True, text=True)
                walls[w].append(time.time() - t0)
                last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
                if proc.returncode != 0 or not last.startswith("{"):
                    sys.exit(f"{w} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
                res = json.loads(last)
                if not res["correct"] or res["failed"]:
                    sys.exit(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
                with open(report_path) as f:
                    full = json.load(f)[w]
                for m in metrics:
                    values[w][s][m].append(res["metrics"][m]["value"])
                    raws[w][s][m].append(full["extra"].get("raw." + m, full["end_to_end"][m])["value"])
                print(f"set {s} run {i} {w} seed {seed}: {time.time() - t0:.1f}s", file=sys.stderr, flush=True)

    report = {"runs_per_set": args.runs, "run_seconds": bench["run_seconds"], "workloads": {}}
    worst = {m: 0.0 for m in metrics}
    for w in names:
        per = {}
        for m, spec in metrics.items():
            a, b = spread(values[w][0][m]), spread(values[w][1][m])
            worse = (b["median"] - a["median"]) / a["median"]
            if spec["better"] == "higher":
                worse = -worse
            per[m] = {"set1": dict(a, values=values[w][0][m]), "set2": dict(b, values=values[w][1][m]),
                      "second_median_worse_by": worse, "bound": spec["bound"],
                      "raw_spread": [spread(raws[w][0][m])["spread"], spread(raws[w][1][m])["spread"]]}
            worst[m] = max(worst[m], a["spread"], b["spread"], abs(worse))
        report["workloads"][w] = {"wall_s_median": statistics.median(walls[w]), "metrics": per}
    # A bound holds three times the worst spread or median shift seen, at
    # least 5% and at most 25%; set-up time, which moved work would show
    # in, gets the largest.
    report["suggested_bounds"] = {
        m: 0.25 if m == "setup_s" else round(min(0.25, max(0.05, 3 * worst[m])), 2) for m in metrics}
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    for w in names:
        for m, r in report["workloads"][w]["metrics"].items():
            print(f"{w:14s} {m:18s} spread {r['set1']['spread']:.3f} / {r['set2']['spread']:.3f}"
                  f" (raw {r['raw_spread'][0]:.3f} / {r['raw_spread'][1]:.3f})"
                  f"  median shift {r['second_median_worse_by']:+.3f}  bound {r['bound']}")
    print("suggested bounds:", report["suggested_bounds"])


if __name__ == "__main__":
    main()
