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
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random
from typing import TextIO

from .auxiliary import MEASURES, check_pairing, critical_count, importance_scores
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
    "read_utf8",
    "load_instance_file",
    "parse_algorithm",
    "build_engine",
    "parse_campaign_config",
    "parse_sweep_config",
    "run_campaign",
    "distance_sweep",
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


def _same(value):
    return value


# (column, RunRecord field, write, read) for each runs.csv column
_RUNS_COLUMNS = (
    ("algorithm", "algorithm", _same, _same),
    ("instance", "instance", _same, _same),
    ("run", "run_index", str, int),
    ("seed", "seed", str, int),
    ("makespan", "makespan", str, int),
    ("re", "re",
     lambda re: "" if re is None else f"{re:.6f}", lambda cell: float(cell) if cell else None),
    ("re_basis", "re_basis", _same, _same),
    ("elapsed_s", "elapsed_s", "{:.6f}".format, float),
    ("trace", "trace_path", _same, _same),
)
RUNS_HEADER = [column for column, _, _, _ in _RUNS_COLUMNS]


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


def read_utf8(path: str | Path) -> str:
    """The text of the UTF-8 file at ``path``; any other bytes raise a
    ParseError that names the file and the offset of the first bad byte."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not UTF-8 text") from None


def load_instance_file(path: str | Path) -> Instance:
    """Read an instance file, trying canonical format first, then taillard."""
    path = Path(path)
    text = read_utf8(path)
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


def load_instance_files(paths: list[str], base_dir: str | Path = ".") -> dict[str, Instance]:
    """The instances of a config's ``instance=`` lines, by name. A config needs
    at least one, and no two files may share a name: their rows would merge."""
    if not paths:
        raise ConfigError("config has no instance= line")
    instances = {}
    for rel in paths:
        inst = load_instance_file(Path(base_dir) / rel)
        if inst.name in instances:
            raise ConfigError(f"two instance files share the name {inst.name!r}")
        instances[inst.name] = inst
    return instances


@dataclass(frozen=True)
class AlgorithmSpec:
    name: str
    encoding: str      # realkey | perm
    transfer: str      # ik | ri
    pairing: ImpTsk | tuple  # or a random pairing's (kind, instance file)

    def make_pair(self, exp: Instance, base_dir: str | Path = ".") -> TaskPair:
        if isinstance(self.pairing, ImpTsk):
            return TaskPair(exp, self.pairing)
        kind, path = self.pairing
        return TaskPair(exp, RndTsk(kind, load_instance_file(Path(base_dir) / path)))


_ENGINES = {"mfea-i": "realkey", "p-mfea": "perm"}


def parse_algorithm(name: str) -> AlgorithmSpec:
    # only the first and the last '/' split: a random pairing's file may sit in a subdirectory
    engine, _, rest = name.partition("/")
    pairing, sep_last, transfer = rest.rpartition("/")
    if not sep_last:
        raise ConfigError(f"algorithm {name!r} is not ENGINE/PAIRING/TRANSFER")
    engine, pairing, transfer = engine.strip(), pairing.strip(), transfer.strip()
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
        return AlgorithmSpec(name, enc, mode, (int(head[6]), pairing.partition(":")[2]))

    measure, sep, ratio = low.partition("-")
    if not sep:
        raise ConfigError(f"bad pairing {pairing!r} (use e.g. LSP-20 or rndtsk2:<file>)")
    try:
        k = int(ratio)
    except ValueError:
        raise ConfigError(f"bad sampling ratio in pairing {pairing!r}") from None
    try:
        imp = ImpTsk(measure, k)  # checked now, not when the first cell runs
    except ParameterError as exc:
        raise ConfigError(f"bad pairing {pairing!r}: {exc}") from None
    return AlgorithmSpec(name, enc, mode, imp)


def build_engine(
    algo: AlgorithmSpec, pair: TaskPair, seed: int, population: int, ls_intensity: int,
    budget_factor: float | None, max_generations: int | None,
) -> Engine:
    """The engine for one run of ``algo`` on ``pair``. Its wall-clock budget,
    when ``budget_factor`` is set, is ``budget_factor * n * m`` seconds for
    an n-job, m-machine expensive task."""
    budget = None if budget_factor is None else budget_factor * pair.exp.n * pair.exp.m
    config = EngineConfig(
        population=population, ls_intensity=ls_intensity, encoding=algo.encoding,
        transfer_mode=algo.transfer, time_budget=budget, max_generations=max_generations,
        rng_seed=seed,
    )
    return Engine(pair, config)


# ---------------------------------------------------------------------------
# Campaign and sweep configuration: flat key=value text, one reader.
# ---------------------------------------------------------------------------


_REPEATED = ("instance", "algorithm")


def _read_config(text: str, fields: dict) -> dict:
    """Each value of key=value text converted by ``fields[key]``, its errors
    named with the line; '#' starts a comment. Only ``instance`` and
    ``algorithm`` repeat, into lists; any other key twice names both lines."""
    values = {key: [] for key in _REPEATED if key in fields}
    first_line: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ConfigError(f"line {line_no}: expected key=value, got {raw!r}")
        if key not in fields:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in first_line and key not in _REPEATED:
            raise ConfigError(f"line {line_no}: {key} is already set on line {first_line[key]}")
        first_line.setdefault(key, line_no)
        try:
            converted = fields[key](value)
        except ConfigError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from None
        except ParameterError as exc:
            raise ConfigError(f"line {line_no}: bad value for {key}: {exc}") from None
        except ValueError:
            raise ConfigError(f"line {line_no}: bad value for {key}: {value!r}") from None
        values[key] = values[key] + [converted] if key in _REPEATED else converted
    return values


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
        for key in ("runs", "parallelism"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.budget_factor is None and self.max_generations is None:
            raise ConfigError("set budget_factor, max_generations, or both")
        # the values every cell's EngineConfig gets; a cell's time budget (see
        # build_engine) has the sign of budget_factor
        EngineConfig(
            population=self.population, ls_intensity=self.ls_intensity,
            time_budget=self.budget_factor, max_generations=self.max_generations,
        )
        seen: dict = {}
        for name in self.algorithms:
            _check_new_algorithm(seen, name)


def _check_new_algorithm(seen: dict, name: str) -> str:
    """Parse ``name`` and record it in ``seen``; an algorithm listed twice,
    under any spelling, would run the same cells twice."""
    spec = replace(parse_algorithm(name), name="")
    if spec in seen:
        raise ConfigError(f"algorithm {name!r} is already listed as {seen[spec]!r}")
    seen[spec] = name
    return name


def parse_campaign_config(text: str, base_dir: str | Path = ".") -> CampaignConfig:
    """The campaign that ``key=value`` text describes. Every value is checked
    by CampaignConfig on its own line, so a bad one is named before any output
    exists."""
    probe = CampaignConfig(max_generations=0)
    seen: dict = {}

    def checked(key: str, convert):
        # each value alone; budget_factor's ties to max_generations wait for the end
        return lambda text: getattr(replace(probe, **{key: convert(text)}), key)

    ints = ("runs", "base_seed", "max_generations", "population", "ls_intensity", "parallelism")
    fields = {key: checked(key, int) for key in ints}
    fields.update(
        budget_factor=checked("budget_factor", float), out_dir=checked("out_dir", str),
        instance=str, algorithm=lambda name: _check_new_algorithm(seen, name),
    )
    values = _read_config(text, fields)
    return CampaignConfig(instances=values.pop("instance"), algorithms=values.pop("algorithm"),
                          base_dir=str(base_dir), **values)


def _value_list(key: str, convert, check=_same):
    """Reads a sweep's comma-separated measures or ratios: converts every
    token, then checks each value. The list needs a value and none twice, or
    the sweep would write no rows or repeat some."""
    def read(text: str) -> list:
        values = [convert(tok.strip()) for tok in text.split(",") if tok.strip()]
        for value in values:  # after every conversion, so 'ratios=20,x' names the whole value
            check(value)
        if not values:
            raise ConfigError(f"{key} lists no value")
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"{key} lists {value!r} twice")
        return values
    return read


def parse_sweep_config(text: str, base_dir: str | Path = ".") -> tuple:
    """(instances, measures, ratios, seed, output path) of a distance sweep's
    ``key=value`` text; every measure and ratio by default."""
    values = _read_config(text, {
        "instance": str,
        "measures": _value_list("measures", check_pairing),
        "ratios": _value_list("ratios", int, lambda k: check_pairing(k=k)),
        "seed": int,
        "out": str,
    })
    return (
        list(load_instance_files(values["instance"], base_dir).values()),
        values.get("measures", list(MEASURES)),
        values.get("ratios", list(range(10, 100, 10))),
        values.get("seed", 0),
        Path(base_dir) / values.get("out", "distances.csv"),
    )


# ---------------------------------------------------------------------------
# Campaign execution.
# ---------------------------------------------------------------------------


def _cell_trace_path(algorithm: str, instance: str, run_index: int) -> Path:
    """A cell's trace file, relative to the campaign's output directory."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in algorithm)
    return Path("traces") / f"{safe}__{instance}__run{run_index}.csv"


def write_trace_csv(path: str | Path, trace: list) -> None:
    """Convergence CSV: one (elapsed_s, generation, best_makespan) row per point."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for point in trace:
            writer.writerow([f"{point.elapsed_s:.6f}", point.generation, point.best_makespan])


def _run_cell(args) -> RunRecord:
    """Run one (algorithm, instance, run) cell's engine and write its trace
    under ``out_dir``; top-level so pools can pickle it."""
    algorithm, engine, run_index, out_dir = args
    result = engine.run()
    instance = engine.pair.exp.name
    trace_path = _cell_trace_path(algorithm, instance, run_index)
    trace_file = out_dir / trace_path
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace_file, result.trace)
    return RunRecord(
        algorithm=algorithm,
        instance=instance,
        run_index=run_index,
        seed=engine.config.rng_seed,
        makespan=result.best_makespan,
        elapsed_s=result.elapsed_s,
        trace_path=str(trace_path),
    )


def read_runs_csv(path: str | Path) -> list[RunRecord]:
    """Every row of a runs.csv; an empty ``re`` (a journal row written before
    the campaign finished) reads as None, and a malformed row, or one with a
    cell more or fewer than the header, raises ConfigError naming the file
    and line."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                # DictReader keys extra cells by None and fills missing ones with None
                if None in row or None in row.values():
                    raise ValueError
                cells = {name: read(row[column]) for column, name, _, read in _RUNS_COLUMNS}
            except (KeyError, ValueError):
                raise ConfigError(
                    f"{path}: line {reader.line_num} is not a finished run record"
                ) from None
            records.append(RunRecord(**cells))
    return records


def _runs_row(r: RunRecord) -> list:
    return [write(getattr(r, name)) for _, name, write, _ in _RUNS_COLUMNS]


def _write_runs_csv(path: Path, records: list[RunRecord]) -> None:
    """Replace ``path`` atomically: a crash leaves the old file or the new one."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
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
    if not config.algorithms:
        raise ConfigError("config has no algorithm= line")
    instances = load_instance_files(config.instances, base)
    for name, inst in instances.items():
        if not inst.matrix.p.any():  # then every makespan, and so every reference, is 0
            raise ConfigError(
                f"instance {name!r}: every processing time is 0, so no relative error exists"
            )

    # every cell's engine is built, and so checked, before any output exists
    engines, trace_owner = {}, {}
    for algo in config.algorithms:
        spec = parse_algorithm(algo)
        for name, inst in instances.items():
            # two cells' paths differ in every run if they differ in run 0
            trace = _cell_trace_path(algo, name, 0)
            owner = trace_owner.setdefault(trace, algo)
            if owner != algo:
                raise ConfigError(
                    f"algorithms {owner!r} and {algo!r} would write the same trace file {trace}"
                )
            try:
                pair = spec.make_pair(inst, base)
                for run_index in range(config.runs):
                    engines[algo, name, run_index] = build_engine(
                        spec, pair, config.base_seed + run_index, config.population,
                        config.ls_intensity, config.budget_factor, config.max_generations,
                    )
            except FlowmtError as exc:
                raise ConfigError(f"algorithm {algo!r} on instance {name!r}: {exc}") from None

    out_dir = base / config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    runs_path = out_dir / "runs.csv"
    done = {}
    if runs_path.exists():
        # a row without its newline was cut by a crash: drop it, so its cell
        # runs again and every appended row starts on a line of its own
        journal = runs_path.read_bytes()
        whole = journal.rfind(b"\n") + 1
        if whole < len(journal):
            with open(runs_path, "r+b") as fh:
                fh.truncate(whole)
        done = {(r.algorithm, r.instance, r.run_index): r for r in read_runs_csv(runs_path)}
    pending = [
        (algo, engine, run_index, out_dir)
        for (algo, name, run_index), engine in engines.items()
        if (algo, name, run_index) not in done
    ]

    # Journal each cell as it finishes (re columns empty until the end), so a
    # campaign that stops early resumes without redoing finished cells. In
    # parallel, the failure of the earliest failed cell is raised only once
    # the pool has drained and every cell that did finish is journaled.
    with open(runs_path, "a", newline="", encoding="utf-8") as journal:
        writer = csv.writer(journal)
        if journal.tell() == 0:
            writer.writerow(RUNS_HEADER)

        def record(r: RunRecord) -> None:
            writer.writerow(_runs_row(r))
            journal.flush()
            done[(r.algorithm, r.instance, r.run_index)] = r

        if config.parallelism > 1 and len(pending) > 1:
            # imported here, so a serial run and ``import flowmt`` never load the pool
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor, as_completed

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

    records = [done[cell] for cell in engines]
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
    with open(out_dir / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
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
    """One row per (instance, measure, ratio): distance, cosine and its floor.
    Every measure, every instance, and every ratio on every instance are
    checked before any row is computed."""
    kinds = [check_pairing(measure) for measure in measures]
    for ratio in ratios:
        check_pairing(k=ratio)
    counts = []
    for inst in instances:
        try:
            if not inst.matrix.p.any():  # then no cosine floor exists (0/0)
                raise ParameterError("every processing time is 0, so no cosine bound exists")
            counts.append([critical_count(inst.n, ratio) for ratio in ratios])
        except ParameterError as exc:
            raise ParameterError(f"instance {inst.name!r}: {exc}") from None
    rows = []
    for i_idx, (inst, gs) in enumerate(zip(instances, counts)):
        for m_idx, kind in enumerate(kinds):
            rng = Random(seed + 1009 * i_idx + m_idx)
            _, ranking = importance_scores(inst.matrix, kind, rng)
            for ratio, g in zip(ratios, gs):
                selected = ranking[:g]
                res = itdm(zero_pad(inst.matrix, selected), inst.matrix)
                bound = cos_theta_lower_bound(inst.matrix, selected)
                rows.append((inst.name, kind, ratio, res.d, res.cos_theta, bound))
    return rows


def write_sweep_csv(path: str | Path, rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for name, measure, ratio, d, cos_theta, bound in rows:
            writer.writerow([name, measure, ratio, f"{d:.9f}", f"{cos_theta:.9f}", f"{bound:.9f}"])
