"""Summarize recorded runs: median, quartiles and spread per metric.

    python3 bench/summarize.py --seeds 1-10 [--trace 0|1] [--workload NAME ...]
                               [--append LABEL --commit REV]

Reads bench/out/results/<workload>-trace<T>-seed<N>.json as run.py
writes them.  The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4).  --append adds the medians as a new
entry of bench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load(workload: str, trace: int, seeds) -> list[dict]:
    records = []
    for seed in seeds:
        path = os.path.join(run.OUT, "results", "%s-trace%d-seed%d.json" % (workload, trace, seed))
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def summary(records, key: str = "metrics") -> dict:
    out = {}
    for name in records[0][key]:
        values = [r[key][name] for r in records]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0}
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", nargs="*", default=list(run.WORKLOADS))
    ap.add_argument("--append", default="", help="label of a trajectory entry to add")
    ap.add_argument("--commit", default="")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    entry = {"label": args.append, "commit": args.commit, "seeds": args.seeds,
             "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        records = load(workload, args.trace, seeds)
        stats = summary(records)
        env = records[0]["env"]
        entry.update(python=env["python"], nproc=env["nproc"])
        entry["workloads"][workload] = {
            "ops_per_pass": env["ops_per_pass"],
            "failed": sum(r["failed"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "metrics": {name: s["median"] for name, s in stats.items()},
        }
        print("%s (%d runs, python %s, nproc %s)" % (workload, len(records), env["python"],
                                                      env["nproc"]))
        raw = summary(records, "raw") if "raw" in records[0] else {}
        for name, s in list(stats.items()) + [("raw " + k, v) for k, v in raw.items()]:
            print("  %-42s median %-12.6g Q1 %-12.6g Q3 %-12.6g spread %.4f"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"]))
    if args.append:
        path = os.path.join(run.BENCH, "trajectory.json")
        trajectory = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                trajectory = json.load(fh)
        trajectory.append(entry)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trajectory, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
