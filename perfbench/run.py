"""flowmt benchmark: one workload per invocation, checked, one JSON line out.

    python3 perfbench/run.py --workload solve-ri-100x20 --seed 1 --seconds 30 --trace 0

Run from the root of a flowmt checkout; flowmt is imported from its ``src/``.
Set-up (import, instance generation, input files) is repeated and timed as
``setup_s``. Then whole rounds of the workload's fixed work repeat until
``--seconds`` have passed; each round's outputs are checked against
independent computations after its timing. With ``--trace 1`` every second
round runs under the tracer and the per-layer metrics are reported instead of
the end-to-end ones. The golden digests of fixed-seed runs are compared last.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics. The exit code is nonzero when a check fails or
an operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

# Imported before set-up so that setup_s times flowmt's own import.
import numpy  # noqa: F401

import check
import common
import golden
import tracer as tracing
import workloads

SETUP_REPS = 15

END_TO_END_UNITS = {
    "wall_s": "s",
    "generations_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "best_makespan": "time_units",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload, run_dir, seed):
    """Repeat the set-up; returns the last one's module, state and all timings."""
    times = []
    for rep in range(SETUP_REPS):
        rep_dir = run_dir / f"setup{rep}"
        rep_dir.mkdir()
        start = perf_counter()
        fm = common.import_flowmt(fresh=True)
        state = workload.setup(fm, rep_dir, seed)
        times.append(perf_counter() - start)
    return fm, state, times


def measure(fm, workload, state, seconds, traced):
    """Whole rounds until ``seconds`` pass; in traced mode odd rounds run under the tracer."""
    tracer = tracing.Tracer() if traced else None

    def one_round(index):
        under = tracer if traced and index % 2 else None
        if under is not None:
            under.reset()
            under.install()
        try:
            wall, raw = workload.run_round(fm, state, index, under)
        finally:
            if under is not None:
                under.remove()
        result = workload.check_round(state, raw)
        layers = under.round_metrics(wall) if under is not None else None
        print(f"round {index}: wall_s={wall:.4f} traced={under is not None} "
              f"best_makespan={result.best_makespan}", flush=True)
        return wall, result, layers

    rounds = common.repeat_for(one_round, seconds, min_rounds=2 if traced else 1)
    if traced:
        last_traced_wall = [wall for wall, _, layers in rounds if layers is not None][-1]
        for line in tracer.layer_table(last_traced_wall):
            print("layer", line)
        if tracer.missing:
            print("not traced (absent from flowmt):", ", ".join(tracer.missing))
    return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("FLOWMT_PARALLELISM", None)
    common.require_sources()
    workload = workloads.WORKLOADS[args.workload]
    run_dir = common.scratch_dir("run-")
    correct = True
    attempted = failed = 0
    metrics, units = {}, {}
    try:
        fm, state, setup_times = set_up(workload, run_dir, args.seed)
        workload.verify_setup(state)
        rounds = measure(fm, workload, state, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results = [r for _, r, _ in rounds]
        attempted = sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)
        ok = [r for r in results if not r.failed]
        check.require(len({(r.digest, r.best_makespan, r.generations) for r in ok}) <= 1,
                      "rounds of one run gave different outputs")
        untraced = [w for w, r, layers in rounds if layers is None and not r.failed]
        if args.trace:
            layer_rounds = [layers for _, r, layers in rounds if layers is not None]
            metrics = tracing.median_metrics(layer_rounds)
            traced_walls = [w for w, _, layers in rounds if layers is not None]
            metrics["trace.overhead_s"] = (
                statistics.median(traced_walls) - statistics.median(untraced))
            units = tracing.METRICS
        elif ok:
            wall = statistics.median(untraced)
            metrics = {
                "wall_s": wall,
                "generations_per_s": ok[0].generations / wall,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb,
                "best_makespan": ok[0].best_makespan,
            }
            units = END_TO_END_UNITS
        print(f"setup_s reps: {' '.join(f'{t:.4f}' for t in setup_times)}")
        for name, status in golden.compare(fm):
            print(f"golden {name}: {status}")
    except check.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            common.WORK.rmdir()
        except OSError:
            pass
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }
    print(json.dumps(line))
    return 0 if correct and not failed and attempted else 1


if __name__ == "__main__":
    raise SystemExit(main())
