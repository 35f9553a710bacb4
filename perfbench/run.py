"""attnseg benchmark: drives the `attnseg` CLI in-process over one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 40 --trace 0

The workload seed makes the inputs; the program sees only the generated
files. Set-ups and timed passes over the workload's stages alternate for
about --seconds: a few set-ups, each timed on its own, then a pass
whose outputs are checked. Spreading the set-ups over the run gives
setup_s the same host conditions as wall_s. With --trace 0 the last stdout line
holds the end-to-end metrics; with --trace 1 untraced and traced passes
alternate and it holds the per-layer metrics. A record of the run, with
the machine it ran on, goes to .bench_results/.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread: the matrices are small, and a second thread only adds noise.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# Before each pass, set-up repeats about SETUP_SECONDS_PER_PASS worth of times,
# at least once and at most SETUP_MAX_PER_PASS times; setup_s is the median of all.
SETUP_SECONDS_PER_PASS, SETUP_MAX_PER_PASS = 0.25, 25
WORK_DIR = ".bench_work"
RESULTS_DIR = ".bench_results"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import attnseg from ./src of the checkout, and nowhere else."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "attnseg", "__init__.py")):
        sys.exit("no attnseg sources under %s; run from the root of a checkout" % src)
    sys.path.insert(0, src)
    import attnseg
    if not os.path.abspath(attnseg.__file__).startswith(src + os.sep):
        sys.exit("attnseg was imported from %s, not from %s" % (attnseg.__file__, src))


def setups_before_pass(times: list[float], traced: bool) -> int:
    """A traced run sets up once; its set-up time is not reported."""
    if traced:
        return 0 if times else 1
    if not times:
        return 1
    typical = sorted(times)[len(times) // 2]
    return max(1, min(SETUP_MAX_PER_PASS, round(SETUP_SECONDS_PER_PASS / typical)))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()

    import gc
    import json
    import resource
    import shutil
    import statistics
    import time

    import machine
    import selftest
    import tracer
    import workloads
    from checks import Tally

    with open("BENCHMARK.json", encoding="utf-8") as f:
        declared = {kind: {m["name"]: m["unit"] for m in entries}
                    for kind, entries in json.load(f).items()
                    if kind in ("end_to_end", "per_layer")}
    if args.workload not in workloads.WORKLOADS:
        sys.exit("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    broken = selftest.run()
    if broken:
        sys.exit("output checks failed their self-test: " + "; ".join(broken))
    wl = workloads.WORKLOADS[args.workload]
    tag = "%s-seed%d-trace%d" % (wl.name, args.seed, args.trace)
    work = os.path.join(WORK_DIR, "%s-%d" % (tag, os.getpid()))
    tally = Tally()
    try:
        # the seed search is the benchmark's own work, so it stays out of setup_s
        synth_seed = wl.synth_seed(args.seed)
        setup_times, setup_hashes = [], []
        recorder = tracer.Tracer()
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for _ in range(setups_before_pass(setup_times, args.trace)):
                # every set-up rewrites the same directory, so the passes read its files
                workloads.fresh_dir(work + "/in")
                gc.collect()
                t1 = time.perf_counter()
                inp = wl.setup(work + "/in", synth_seed)
                setup_times.append(time.perf_counter() - t1)
                setup_hashes.append(workloads.file_hashes(inp.files))
            use_trace = bool(args.trace) and len(traced) < len(plain)
            gc.collect()
            if use_trace:
                recorder.install()
                try:
                    result = recorder.span("pass", workloads.run_pass, wl, inp, work + "/out", tally)
                finally:
                    recorder.uninstall()
                traced.append(result)
            else:
                result = workloads.run_pass(wl, inp, work + "/out", tally)
                plain.append(result)
            # stop at the round boundary nearest to --seconds, so a run lasts
            # --seconds give or take half a round
            now = time.perf_counter()
            if now - start + (now - t0) / 2 > args.seconds and (traced or not args.trace):
                break
        if any(h != setup_hashes[0] for h in setup_hashes):
            tally.errors.append("set-up with one seed gave different inputs")
        results = plain + traced
        if any(r.hashes != results[0].hashes for r in results):
            tally.errors.append("outputs differ between passes")
        if any(r.quality != results[0].quality for r in results):
            tally.errors.append("quality figures differ between passes")
        quality = results[0].quality

        wall = statistics.median(r.wall_s for r in plain)
        if args.trace:
            metrics = tracer.layer_metrics(recorder.spans, len(traced))
            metrics["trace.overhead_frac"] = (
                statistics.median(r.wall_s for r in traced) - wall) / wall
            units = declared["per_layer"]
        else:
            metrics = {
                "wall_s": wall,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "quality": quality.get(wl.headline, 0.0),
            }
            units = declared["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        sys.exit("metrics %s do not match BENCHMARK.json %s"
                 % (sorted(set(metrics) ^ set(units)), "per_layer" if args.trace else "end_to_end"))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine.record(args.seed, BLAS_THREADS),
        "metrics": metrics, "quality": quality,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "pass_wall_s": [r.wall_s for r in plain], "traced_pass_wall_s": [r.wall_s for r in traced],
        "setup_s": setup_times, "problems": tally.problems, "errors": tally.errors,
    }
    with open(os.path.join(RESULTS_DIR, tag + ".json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    if args.trace:
        recorder.write(os.path.join(RESULTS_DIR, tag + ".trace.jsonl"))

    for line in tally.errors + tally.problems:
        print("check: " + line, file=sys.stderr)
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print("%s seed %d: %d plain and %d traced passes, failed_frac %.6f"
          % (wl.name, args.seed, len(plain), len(traced), record["failed_frac"]))
    for name, value in sorted(quality.items()):
        print("  %-40s %.6f" % (name, value))
    for name, value in metrics.items():
        print("  %-40s %.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
