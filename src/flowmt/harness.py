"""Experiment campaigns over instance sets and algorithm configurations.

Algorithms are named by triplets "ENGINE/PAIRING/TRANSFER", for example
"MFEA-I/LSP-20/RI" or "P-MFEA/RndTsk2:aux.txt/IK". A campaign executes every
(algorithm, instance, run) cell, journals finished cells so interrupted
campaigns resume where they stopped, and emits:

  runs.csv     one row per cell (makespan, relative error, seed, trace path)
  metrics.csv  average/best/worst relative error per (algorithm, instance)
  traces/      one convergence CSV per cell (elapsed_s, generation, best)

Relative errors use the instance's best-known makespan when available and
otherwise fall back to the campaign's own best observed value, flagged in the
re_basis column.
"""

from __future__ import annotations

import csv
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random
from typing import Iterator, TextIO

from .auxiliary import build_eat, importance_scores
from .distance import cos_theta_lower_bound, itdm, zero_pad
from .emt import Engine, EngineConfig, ImpTsk, RndTsk, TaskPair
from .errors import ConfigError, FlowmtError, ParameterError, ParseError
from .instance import Instance, parse_instance

__all__ = [
    "RunRecord",
    "MetricsRow",
    "CampaignConfig",
    "relative_error",
    "aggregate",
    "load_instance_file",
    "parse_algorithm",
    "parse_campaign_config",
    "run_campaign",
    "distance_sweep",
]

RUNS_HEADER = [
    "algorithm",
    "instance",
    "run",
    "seed",
    "makespan",
    "re",
    "re_basis",
    "elapsed_s",
    "trace",
]
METRICS_HEADER = ["algorithm", "instance", "are", "bre", "wre"]
TRACE_HEADER = ["elapsed_s", "generation", "best_makespan"]
SWEEP_HEADER = ["instance", "measure", "ratio", "d", "cos_theta", "bound"]


@dataclass
class RunRecord:
    algorithm: str
    instance: str
    run_index: int
    seed: int
    makespan: int
    elapsed_s: float
    trace_path: str = ""
    re: float | None = None
    re_basis: str = ""


@dataclass
class MetricsRow:
    algorithm: str
    instance: str
    are: float
    bre: float
    wre: float


def relative_error(c: float, c_star: float) -> float:
    """Percent excess of a makespan over the reference value."""
    if c_star <= 0:
        raise ParameterError(f"reference makespan must be positive, got {c_star}")
    return 100.0 * (c - c_star) / c_star


def aggregate(records: list[RunRecord]) -> MetricsRow:
    """Mean/min/max relative error over one (algorithm, instance) cell group."""
    if not records:
        raise ParameterError("cannot aggregate zero run records")
    keys = {(r.algorithm, r.instance) for r in records}
    if len(keys) != 1:
        raise ParameterError(f"records mix {len(keys)} (algorithm, instance) groups")
    res = [r.re for r in records]
    if any(r is None for r in res):
        raise ParameterError("aggregate needs relative errors on every record")
    return MetricsRow(
        algorithm=records[0].algorithm,
        instance=records[0].instance,
        are=sum(res) / len(res),
        bre=min(res),
        wre=max(res),
    )


def group_metrics(records: list[RunRecord]) -> list[MetricsRow]:
    """One aggregated row per (algorithm, instance), sorted by that key."""
    groups: dict = {}
    for r in records:
        groups.setdefault((r.algorithm, r.instance), []).append(r)
    return [aggregate(groups[key]) for key in sorted(groups)]


# ---------------------------------------------------------------------------
# Instance loading and algorithm-name parsing.
# ---------------------------------------------------------------------------


def load_instance_file(path: str | Path) -> Instance:
    """Read an instance file, trying canonical format first, then taillard."""
    path = Path(path)
    text = path.read_text()
    try:
        return parse_instance(text, "canonical", name=path.stem)
    except ParseError as canonical:
        try:
            return parse_instance(text, "taillard", name=path.stem)
        except ParseError as taillard:
            raise ParseError(
                f"{path}: not a canonical instance ({canonical}) "
                f"nor a taillard one ({taillard})"
            ) from None


@dataclass(frozen=True)
class AlgorithmSpec:
    name: str
    encoding: str      # realkey | perm
    transfer: str      # ik | ri
    measure: str | None = None
    k: int | None = None
    rnd_kind: int | None = None
    aux_path: str | None = None

    def make_pair(self, exp: Instance, base_dir: str | Path = ".") -> TaskPair:
        if self.measure is not None:
            return TaskPair(exp, ImpTsk(self.measure, self.k))
        aux = load_instance_file(Path(base_dir) / self.aux_path)
        return TaskPair(exp, RndTsk(self.rnd_kind, aux))


_ENGINES = {"mfea-i": "realkey", "p-mfea": "perm"}


def parse_algorithm(name: str) -> AlgorithmSpec:
    parts = name.split("/")
    if len(parts) != 3:
        raise ConfigError(f"algorithm {name!r} is not ENGINE/PAIRING/TRANSFER")
    engine, pairing, transfer = (p.strip() for p in parts)
    enc = _ENGINES.get(engine.lower())
    if enc is None:
        raise ConfigError(f"unknown engine {engine!r} (use MFEA-I or P-MFEA)")
    mode = transfer.lower()
    if mode not in ("ik", "ri"):
        raise ConfigError(f"unknown transfer {transfer!r} (use IK or RI)")

    low = pairing.lower()
    if low.startswith("rndtsk"):
        head, _, aux = low.partition(":")
        if len(head) != 7 or head[6] not in "123":
            raise ConfigError(f"bad random pairing {pairing!r} (use rndtsk1..3:<file>)")
        if not aux:
            raise ConfigError(f"random pairing {pairing!r} needs an instance file")
        # keep the original (case-preserved) path portion
        aux_path = pairing.partition(":")[2]
        return AlgorithmSpec(
            name=name, encoding=enc, transfer=mode,
            rnd_kind=int(head[6]), aux_path=aux_path,
        )

    measure, sep, ratio = low.partition("-")
    if not sep:
        raise ConfigError(f"bad pairing {pairing!r} (use e.g. LSP-20 or rndtsk2:<file>)")
    try:
        k = int(ratio)
    except ValueError:
        raise ConfigError(f"bad sampling ratio in pairing {pairing!r}") from None
    try:
        ImpTsk(measure, k)  # checks measure and ratio now, not when the first cell runs
    except ConfigError as exc:
        raise ConfigError(f"bad pairing {pairing!r}: {exc}") from None
    return AlgorithmSpec(name=name, encoding=enc, transfer=mode, measure=measure, k=k)


# ---------------------------------------------------------------------------
# Campaign configuration: flat key=value text, repeated instance=/algorithm=.
# ---------------------------------------------------------------------------


@dataclass
class CampaignConfig:
    instances: list = field(default_factory=list)
    algorithms: list = field(default_factory=list)
    runs: int = 1
    base_seed: int = 0
    budget_factor: float | None = None
    max_generations: int | None = None
    population: int = 100
    ls_intensity: int = 50
    parallelism: int = 1
    out_dir: str = "campaign_out"
    base_dir: str = "."

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.budget_factor is None and self.max_generations is None:
            raise ConfigError("set budget_factor, max_generations, or both")
        seen: dict = {}
        for name in self.algorithms:
            _check_new_algorithm(seen, name)


def _check_new_algorithm(seen: dict, name: str) -> None:
    """Parse ``name`` and record it in ``seen``; an algorithm listed twice,
    under any spelling, would run the same cells twice."""
    spec = replace(parse_algorithm(name), name="")
    if spec in seen:
        raise ConfigError(f"algorithm {name!r} is already listed as {seen[spec]!r}")
    seen[spec] = name


def config_items(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) per non-blank line of key=value text; '#'
    starts a comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ConfigError(f"line {line_no}: expected key=value, got {raw!r}")
        yield line_no, key, value


def parse_campaign_config(text: str, base_dir: str | Path = ".") -> CampaignConfig:
    kwargs: dict = {"instances": [], "algorithms": [], "base_dir": str(base_dir)}
    seen: dict = {}
    scalars = {
        "runs": int,
        "base_seed": int,
        "budget_factor": float,
        "max_generations": int,
        "population": int,
        "ls_intensity": int,
        "parallelism": int,
        "out_dir": str,
    }
    for line_no, key, value in config_items(text):
        if key == "instance":
            kwargs["instances"].append(value)
        elif key == "algorithm":
            try:
                _check_new_algorithm(seen, value)
            except ConfigError as exc:
                raise ConfigError(f"line {line_no}: {exc}") from None
            kwargs["algorithms"].append(value)
        elif key in scalars:
            try:
                kwargs[key] = scalars[key](value)
            except ValueError:
                raise ConfigError(f"line {line_no}: bad value for {key}: {value!r}") from None
        else:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
    return CampaignConfig(**kwargs)


# ---------------------------------------------------------------------------
# Campaign execution.
# ---------------------------------------------------------------------------


def _cell_trace_path(algorithm: str, instance: str, run_index: int) -> Path:
    """A cell's trace file, relative to the campaign's output directory."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in algorithm)
    return Path("traces") / f"{safe}__{instance}__run{run_index}.csv"


def _engine_config(cfg: CampaignConfig, algo: AlgorithmSpec, exp: Instance, seed: int) -> EngineConfig:
    budget = None
    if cfg.budget_factor is not None:
        budget = cfg.budget_factor * exp.n * exp.m
    return EngineConfig(
        population=cfg.population,
        ls_intensity=cfg.ls_intensity,
        encoding=algo.encoding,
        transfer_mode=algo.transfer,
        time_budget=budget,
        max_generations=cfg.max_generations,
        rng_seed=seed,
    )


def write_trace_csv(path: str | Path, trace: list) -> None:
    """Convergence CSV: one (elapsed_s, generation, best_makespan) row per point."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for point in trace:
            writer.writerow([f"{point.elapsed_s:.6f}", point.generation, point.best_makespan])


def _run_cell(args) -> RunRecord:
    """Execute one (algorithm, instance, run) cell; top-level so pools can pickle it."""
    algo, pair, config, run_index, trace_path = args
    seed = config.base_seed + run_index
    result = Engine(pair, _engine_config(config, algo, pair.exp, seed)).run()
    trace_file = Path(config.base_dir) / config.out_dir / trace_path
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace_file, result.trace)
    return RunRecord(
        algorithm=algo.name,
        instance=pair.exp.name,
        run_index=run_index,
        seed=seed,
        makespan=result.best_makespan,
        elapsed_s=result.elapsed_s,
        trace_path=str(trace_path),
    )


def read_runs_csv(path: str | Path) -> list[RunRecord]:
    """Every row of a runs.csv; an empty ``re`` (a journal row written before
    the campaign finished) reads as None, and a malformed row raises
    ConfigError naming the file and line."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                records.append(
                    RunRecord(
                        algorithm=row["algorithm"],
                        instance=row["instance"],
                        run_index=int(row["run"]),
                        seed=int(row["seed"]),
                        makespan=int(row["makespan"]),
                        elapsed_s=float(row["elapsed_s"]),
                        trace_path=row["trace"],
                        re=float(row["re"]) if row["re"] else None,
                        re_basis=row["re_basis"],
                    )
                )
            except (KeyError, TypeError, ValueError):
                raise ConfigError(
                    f"{path}: line {reader.line_num} is not a finished run record"
                ) from None
    return records


def _runs_row(r: RunRecord) -> list:
    return [
        r.algorithm,
        r.instance,
        r.run_index,
        r.seed,
        r.makespan,
        "" if r.re is None else f"{r.re:.6f}",
        r.re_basis,
        f"{r.elapsed_s:.6f}",
        r.trace_path,
    ]


def _write_runs_csv(path: Path, records: list[RunRecord]) -> None:
    """Replace ``path`` atomically: a crash leaves the old file or the new one."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNS_HEADER)
        writer.writerows(_runs_row(r) for r in records)
    os.replace(tmp, path)


def write_metrics_csv(stream: TextIO, rows: list[MetricsRow]) -> None:
    writer = csv.writer(stream)
    writer.writerow(METRICS_HEADER)
    for row in rows:
        writer.writerow(
            [row.algorithm, row.instance, f"{row.are:.6f}", f"{row.bre:.6f}", f"{row.wre:.6f}"]
        )


def run_campaign(config: CampaignConfig) -> tuple[list[RunRecord], list[MetricsRow]]:
    """Run every cell, resuming past work, and write runs/metrics/trace CSVs."""
    base = Path(config.base_dir)
    instances = {}
    for rel in config.instances:
        inst = load_instance_file(base / rel)
        if inst.name in instances:
            raise ConfigError(f"two instance files share the name {inst.name!r}")
        instances[inst.name] = inst

    # every (algorithm, instance) pairing is built, and so checked, before any cell runs
    pairs = {}
    for algo in config.algorithms:
        spec = parse_algorithm(algo)
        for name, inst in instances.items():
            try:
                pairs[algo, name] = (spec, spec.make_pair(inst, base))
            except FlowmtError as exc:
                raise ConfigError(f"algorithm {algo!r} on instance {name!r}: {exc}") from None
    cells = [(algo, name, run_index) for algo, name in pairs for run_index in range(config.runs)]

    out_dir = base / config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    runs_path = out_dir / "runs.csv"
    done = {}
    if runs_path.exists():
        done = {(r.algorithm, r.instance, r.run_index): r for r in read_runs_csv(runs_path)}
    pending = [
        (*pairs[algo, name], config, run_index, _cell_trace_path(algo, name, run_index))
        for algo, name, run_index in cells
        if (algo, name, run_index) not in done
    ]

    # Journal each cell as it finishes (re columns empty until the end), so a
    # campaign that stops early resumes without redoing finished cells. In
    # parallel, the failure of the earliest failed cell is raised only once
    # the pool has drained and every cell that did finish is journaled.
    with open(runs_path, "a", newline="") as journal:
        writer = csv.writer(journal)
        if journal.tell() == 0:
            writer.writerow(RUNS_HEADER)

        def record(r: RunRecord) -> None:
            writer.writerow(_runs_row(r))
            journal.flush()
            done[(r.algorithm, r.instance, r.run_index)] = r

        if config.parallelism > 1 and len(pending) > 1:
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=config.parallelism, mp_context=spawn) as pool:
                futures = [pool.submit(_run_cell, cell) for cell in pending]
                for future in as_completed(futures):
                    if future.exception() is None:
                        record(future.result())
            for future in futures:
                if future.exception() is not None:
                    raise future.exception()
        else:
            for cell in pending:
                record(_run_cell(cell))

    records = [done[cell] for cell in cells]
    records.sort(key=lambda r: (r.algorithm, r.instance, r.run_index))

    # Reference makespans: best-known when the instance carries one, otherwise
    # the best value this campaign observed for the instance (flagged).
    best_seen: dict = {}
    for r in records:
        cur = best_seen.get(r.instance)
        if cur is None or r.makespan < cur:
            best_seen[r.instance] = r.makespan
    for r in records:
        inst = instances[r.instance]
        if inst.best_known is not None:
            c_star, basis = inst.best_known, "best_known"
        else:
            c_star, basis = best_seen[r.instance], "campaign_best"
        r.re = relative_error(r.makespan, c_star)
        r.re_basis = basis

    _write_runs_csv(runs_path, records)
    metrics = group_metrics(records)
    with open(out_dir / "metrics.csv", "w", newline="") as fh:
        write_metrics_csv(fh, metrics)
    return records, metrics


# ---------------------------------------------------------------------------
# Distance sweep: task similarity per (instance, measure, ratio).
# ---------------------------------------------------------------------------


def distance_sweep(
    instances: list[Instance],
    measures: list[str],
    ratios: list[int],
    seed: int = 0,
) -> list[tuple]:
    """One row per (instance, measure, ratio): distance, cosine and its floor."""
    rows = []
    for i_idx, inst in enumerate(instances):
        for m_idx, measure in enumerate(measures):
            rng = Random(seed + 1009 * i_idx + m_idx)
            _, ranking = importance_scores(inst.matrix, measure, rng)
            for ratio in ratios:
                eat = build_eat(inst.matrix, measure, ratio, ranking=ranking)
                padded = zero_pad(eat, inst.n)
                res = itdm(padded, inst.matrix)
                bound = cos_theta_lower_bound(inst.matrix, eat.S)
                rows.append((inst.name, eat.measure, ratio, res.d, res.cos_theta, bound))
    return rows


def write_sweep_csv(path: str | Path, rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for name, measure, ratio, d, cos_theta, bound in rows:
            writer.writerow([name, measure, ratio, f"{d:.9f}", f"{cos_theta:.9f}", f"{bound:.9f}"])
