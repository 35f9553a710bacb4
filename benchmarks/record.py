"""Fold the records of one benchmark measurement into a single BENCH file.

Run from the root of a checkout, after `perfbench/run.py` has written its
records to `.bench_results/`:

    python3 benchmarks/record.py --results .bench_results --out BENCH_17.json

The output holds the machine the runs shared, and per workload: the
median and interquartile range of each end-to-end metric over the
untraced runs, `quality` per seed, and the per-layer metrics of the
traced run of seed 1. A measurement whose records name different
machines or commits is refused, because its numbers cannot be compared.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys


def _spread(values: list[float]) -> dict:
    """Median and interquartile range; with one value the range is 0."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1, "n": len(values)}


def fold(records: list[dict]) -> dict:
    machines = []
    for r in records:
        m = {k: v for k, v in r["machine"].items() if k != "workload_seed"}
        if m not in machines:
            machines.append(m)
    if len(machines) != 1:
        raise ValueError("the records name %d different machines or commits: %s"
                         % (len(machines), machines))
    workloads: dict[str, dict] = {}
    for r in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        w = workloads.setdefault(r["workload"], {"end_to_end": {}, "quality": {},
                                                 "per_layer_seed1": None})
        if r["trace"]:
            if r["seed"] == 1:
                w["per_layer_seed1"] = r["metrics"]
            continue
        for name, value in r["metrics"].items():
            w["end_to_end"].setdefault(name, []).append(value)
        w["quality"][str(r["seed"])] = r["quality"]
    for w in workloads.values():
        w["end_to_end"] = {name: _spread(v) for name, v in w["end_to_end"].items()}
    return {"machine": machines[0], "workloads": workloads}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--results", default=".bench_results", help="directory of run records")
    p.add_argument("--out", required=True, help="the BENCH file to write")
    args = p.parse_args(argv)
    paths = sorted(glob.glob(os.path.join(args.results, "*.json")))
    if not paths:
        sys.exit("no run records in %s" % args.results)
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            records.append(json.load(f))
    try:
        bench = fold(records)
    except ValueError as e:
        sys.exit(str(e))
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(bench, f, indent=2, sort_keys=True)
        f.write("\n")
    print("folded %d records of %s into %s"
          % (len(records), ", ".join(sorted(bench["workloads"])), args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
