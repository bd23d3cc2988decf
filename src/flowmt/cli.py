"""Command-line interface.

Subcommands: generate, distance, build-eat, solve-eat, patch, solve,
experiment, distance-sweep, metrics. Exit code 0 on success; config or input
errors print a diagnostic to stderr and return a nonzero code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from random import Random

from .auxiliary import MEASURES, build_eat, importance_scores
from .distance import itdm
from .errors import ConfigError, FlowmtError
from .harness import (
    METRICS,
    SWEEP,
    TRACE,
    build_engine,
    distance_sweep,
    group_metrics,
    load_instance_file,
    parse_algorithm,
    parse_campaign_config,
    parse_sweep_config,
    read_runs_csv,
    read_utf8,
    relative_error,
    run_campaign,
    write_csv,
)
from .instance import Instance, generate_taillard, makespan, write_instance
from .search import solve_eat
from .transfer import PATCH_STRATEGIES, patch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowmt",
        description="Flowshop scheduling with economical auxiliary tasks and "
        "evolutionary multitasking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="regenerate a benchmark instance from its seed")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("seed", type=int)
    p.add_argument("--out", help="write canonical instance file here (default stdout)")

    p = sub.add_parser("distance", help="normalized distance between two instances")
    p.add_argument("task_a", help="instance file for the task being measured")
    p.add_argument("task_b", help="instance file for the reference task")

    p = sub.add_parser("build-eat", help="extract an economical auxiliary task")
    p.add_argument("instance")
    p.add_argument("--measure", default="lsp", choices=MEASURES)
    p.add_argument("--ratio", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the submatrix here (default stdout)")

    p = sub.add_parser("solve-eat", help="NEH plus annealing on a compact task")
    p.add_argument("eat_file")
    p.add_argument("--sa-iters", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("patch", help="grow a partial schedule into a complete one")
    p.add_argument("instance")
    p.add_argument("--strategy", default="ri", choices=PATCH_STRATEGIES)
    p.add_argument("--eat-perm", required=True, help="comma-separated job sequence")
    p.add_argument("--measure", default="lsp", choices=MEASURES)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("solve", help="run the multitasking engine on an instance")
    p.add_argument("instance")
    p.add_argument("--pairing", default="lsp-20", help="e.g. lsp-20 or rndtsk2:<file>")
    p.add_argument("--transfer", default="ri", choices=("ik", "ri"))
    p.add_argument("--encoding", default="realkey", choices=("realkey", "perm"))
    p.add_argument("--budget-factor", type=float, default=None,
                   help="wall-clock budget = factor * n * m seconds")
    p.add_argument("--generations", type=int, default=None,
                   help="deterministic alternative to the wall-clock budget")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pop", type=int, default=100)
    p.add_argument("--ls", type=int, default=50)
    p.add_argument("--trace-out", default=None, help="convergence CSV path")

    p = sub.add_parser("experiment", help="run a campaign config")
    p.add_argument("config")

    p = sub.add_parser("distance-sweep", help="distance table for a sweep config")
    p.add_argument("config")

    p = sub.add_parser("metrics", help="aggregate a runs.csv into metrics rows")
    p.add_argument("records")
    p.add_argument("--out", help="write metrics CSV here (default stdout)")
    return parser


def _cmd_generate(args) -> int:
    inst = generate_taillard(args.n, args.m, args.seed)
    text = write_instance(inst)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_distance(args) -> int:
    a = load_instance_file(args.task_a)
    b = load_instance_file(args.task_b)
    res = itdm(a.matrix, b.matrix)
    print(f"d = {res.d:.9f}")
    print(f"t_star = {res.t_star:.9f}")
    print(f"b_star = {res.b_star:.9f}")
    print(f"cos_theta = {res.cos_theta:.9f}")
    return 0


def _cmd_build_eat(args) -> int:
    inst = load_instance_file(args.instance)
    eat = build_eat(inst.matrix, args.measure, args.ratio, rng=Random(args.seed))
    text = write_instance(Instance(eat.submatrix))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        report = sys.stdout
    else:
        sys.stdout.write(text)
        report = sys.stderr
    print(f"S = {' '.join(str(j) for j in eat.selected)}", file=report)
    print(f"g = {eat.g}", file=report)
    return 0


def _cmd_solve_eat(args) -> int:
    inst = load_instance_file(args.eat_file)
    perm = solve_eat(inst.matrix, args.sa_iters, Random(args.seed))
    print("permutation =", " ".join(str(j) for j in perm))
    print("makespan =", makespan(inst.matrix, perm))
    return 0


def _cmd_patch(args) -> int:
    inst = load_instance_file(args.instance)
    try:
        pi_eat = [int(tok) for tok in args.eat_perm.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--eat-perm must be comma-separated integers: {args.eat_perm!r}")
    rng = Random(args.seed)
    _, ranking = importance_scores(inst.matrix, args.measure, rng)
    placed = set(pi_eat)
    remaining = [job for job in ranking if job not in placed]
    full = patch(args.strategy, pi_eat, remaining, inst.matrix, rng)
    print("permutation =", " ".join(str(j) for j in full))
    print("makespan =", makespan(inst.matrix, full))
    return 0


def _check_out_path(path: str | Path) -> None:
    """Reject an output path that cannot be created, before any work is done."""
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"output path {path} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"output path {path}: directory {path.parent} does not exist")


def _cmd_solve(args) -> int:
    trace_path = args.trace_out or f"{Path(args.instance).stem}_trace.csv"
    _check_out_path(trace_path)
    inst = load_instance_file(args.instance)
    if inst.best_known == 0:  # every makespan is 0, so no relative error exists
        raise ConfigError(f"{args.instance}: best-known makespan 0 leaves no relative error")
    algo = parse_algorithm(f"{'MFEA-I' if args.encoding == 'realkey' else 'P-MFEA'}"
                           f"/{args.pairing}/{args.transfer}")
    pair = algo.make_pair(inst)  # a random pairing's file is read from the working directory
    factor = args.budget_factor
    if factor is None and args.generations is None:
        factor = 0.03  # the paper's budget: 0.03 * n * m seconds
    engine = build_engine(algo, pair, args.seed, args.pop, args.ls, factor, args.generations)
    result = engine.run()
    print("best_makespan =", result.best_makespan)
    if inst.best_known is not None:
        print(f"re = {relative_error(result.best_makespan, inst.best_known):.4f}")
    print("permutation =", " ".join(str(j) for j in result.best_perm))
    write_csv(trace_path, TRACE, result.trace)
    print("trace =", trace_path)
    return 0


def _cmd_experiment(args) -> int:
    path = Path(args.config)
    config = parse_campaign_config(read_utf8(path), base_dir=path.parent)
    records, metrics = run_campaign(config)
    print(f"completed {len(records)} runs over {len(metrics)} (algorithm, instance) cells")
    print(f"outputs in {Path(config.base_dir) / config.out_dir}")
    return 0


def _cmd_distance_sweep(args) -> int:
    path = Path(args.config)
    instances, measures, ratios, seed, out = parse_sweep_config(read_utf8(path), path.parent)
    _check_out_path(out)
    rows = distance_sweep(instances, measures, ratios, seed=seed)
    write_csv(out, SWEEP, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_metrics(args) -> int:
    records = read_runs_csv(args.records)
    for r in records:
        if r.re is None:  # a journal row of a campaign still running, or crashed
            raise ConfigError(
                f"{args.records}: run {r.run_index} of {r.algorithm} on {r.instance} "
                "has no relative error; its campaign has not finished"
            )
    write_csv(args.out or sys.stdout, METRICS, group_metrics(records))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "distance": _cmd_distance,
    "build-eat": _cmd_build_eat,
    "solve-eat": _cmd_solve_eat,
    "patch": _cmd_patch,
    "solve": _cmd_solve,
    "experiment": _cmd_experiment,
    "distance-sweep": _cmd_distance_sweep,
    "metrics": _cmd_metrics,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FlowmtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
