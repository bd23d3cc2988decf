"""Output checks for the benchmark, independent of flowmt.

Nothing here imports flowmt. Processing times come from a separate
implementation of the benchmark generator, makespans from the full
completion-time table, and distance figures from their closed forms. Each
check raises CheckError with a message that names the faulty output.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

LCG_MOD = 2147483647


class CheckError(Exception):
    """A benchmark output violates a property the method must have."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Instances and schedules.
# ---------------------------------------------------------------------------


def taillard_times(n: int, m: int, seed: int) -> list[list[int]]:
    """Job-major times of the classic generator: minimal-standard LCG in
    Schrage's overflow-free form, drawn machine-major, uniform on [1, 99]."""
    state = seed
    times = [[0] * m for _ in range(n)]
    for j in range(m):
        for i in range(n):
            k = state // 127773
            state = 16807 * (state % 127773) - k * 2836
            if state < 0:
                state += LCG_MOD
            times[i][j] = 1 + int(state / LCG_MOD * 99)
    return times


def dp_makespan(times: list[list[int]], perm: list[int]) -> int:
    """Makespan from the full completion-time table C[i][j]."""
    m = len(times[0])
    table = [[0] * m for _ in perm]
    for i, job in enumerate(perm):
        row = times[job - 1]
        for j in range(m):
            above = table[i - 1][j] if i else 0
            left = table[i][j - 1] if j else 0
            table[i][j] = max(above, left) + row[j]
    return table[-1][-1]


def lower_bound(times: list[list[int]]) -> int:
    """Largest job sum or machine sum; no schedule finishes earlier."""
    return max(max(sum(row) for row in times), max(sum(col) for col in zip(*times)))


def check_permutation(perm, n: int, what: str) -> None:
    jobs = list(perm)
    seen = set()
    for job in jobs:
        require(job not in seen, f"{what}: job {job} appears twice")
        require(1 <= job <= n, f"{what}: job {job} outside 1..{n}")
        seen.add(job)
    require(len(jobs) == n, f"{what}: {len(jobs)} jobs scheduled, expected {n}")


def check_schedule(times, perm, makespan: int, what: str) -> None:
    """``perm`` orders every job once and really finishes at ``makespan``."""
    check_permutation(perm, len(times), what)
    actual = dp_makespan(times, list(perm))
    require(actual == makespan, f"{what}: reported makespan {makespan}, schedule gives {actual}")
    bound = lower_bound(times)
    require(makespan >= bound, f"{what}: makespan {makespan} below lower bound {bound}")


def check_trace(points, generations: int, final: int, what: str) -> None:
    """One (generation, best) point per generation 0..G, never rising,
    ending at the run's final best."""
    gens = [g for g, _ in points]
    require(gens == list(range(generations + 1)),
            f"{what}: trace generations {gens[:3]}..{gens[-3:]} are not 0..{generations}")
    for (g0, b0), (g1, b1) in zip(points, points[1:]):
        require(b1 <= b0, f"{what}: trace rises from {b0} to {b1} at generation {g1}")
    require(points[-1][1] == final, f"{what}: trace ends at {points[-1][1]}, best is {final}")


def check_engine_run(times, result, generations: int, what: str) -> None:
    """A generation-limited engine run's RunResult."""
    require(result.generations == generations,
            f"{what}: ran {result.generations} generations, limit was {generations}")
    check_schedule(times, result.best_perm, result.best_makespan, what)
    check_trace([(p.generation, p.best_makespan) for p in result.trace],
                generations, result.best_makespan, what)


# ---------------------------------------------------------------------------
# Campaign outputs.
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> list[dict]:
    require(path.is_file(), f"{path.name} was not written")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_trace_csv(path: Path) -> list[tuple[int, int]]:
    return [(int(r["generation"]), int(r["best_makespan"])) for r in read_csv(path)]


def check_campaign(out_dir: Path, cells: set, instances: dict, generations: int,
                   base_seed: int) -> dict:
    """runs.csv, metrics.csv and the traces of one generation-limited campaign.

    ``cells`` holds the expected (algorithm, instance, run) keys;
    ``instances`` maps an instance name to (times, best_known or None).
    Returns the makespan and generation totals over the campaign's runs.
    """
    rows = read_csv(out_dir / "runs.csv")
    keys = [(r["algorithm"], r["instance"], int(r["run"])) for r in rows]
    require(len(keys) == len(set(keys)), f"{out_dir.name}/runs.csv repeats a cell")
    require(set(keys) == cells,
            f"{out_dir.name}/runs.csv has cells {sorted(set(keys) ^ cells)} wrong")

    best_seen: dict = {}
    for r in rows:
        best_seen[r["instance"]] = min(best_seen.get(r["instance"], math.inf), int(r["makespan"]))

    total_makespan = total_generations = 0
    res: dict = {}
    for r, key in zip(rows, keys):
        what = f"{out_dir.name} cell {key}"
        times, best_known = instances[r["instance"]]
        c = int(r["makespan"])
        require(int(r["seed"]) == base_seed + key[2], f"{what}: seed {r['seed']}")
        require(c >= lower_bound(times), f"{what}: makespan {c} below lower bound")
        if best_known is not None:
            require(c >= best_known, f"{what}: makespan {c} beats the optimum {best_known}")
            c_star, basis = best_known, "best_known"
        else:
            c_star, basis = best_seen[r["instance"]], "campaign_best"
        require(r["re_basis"] == basis, f"{what}: re_basis {r['re_basis']}, expected {basis}")
        re = float(r["re"])
        require(abs(re - 100.0 * (c - c_star) / c_star) < 1e-5, f"{what}: re {re} is wrong")
        points = read_trace_csv(out_dir / r["trace"])
        check_trace(points, generations, c, what)
        total_makespan += c
        total_generations += points[-1][0]
        res.setdefault((r["algorithm"], r["instance"]), []).append(re)

    metrics = read_csv(out_dir / "metrics.csv")
    groups = {(r["algorithm"], r["instance"]): r for r in metrics}
    require(len(groups) == len(metrics) and set(groups) == set(res),
            f"{out_dir.name}/metrics.csv does not have one row per (algorithm, instance)")
    for key, row in groups.items():
        are, bre, wre = float(row["are"]), float(row["bre"]), float(row["wre"])
        require(bre <= are <= wre, f"{out_dir.name} metrics {key}: not bre <= are <= wre")
        mean = sum(res[key]) / len(res[key])
        require(abs(are - mean) < 2e-6, f"{out_dir.name} metrics {key}: are {are} != mean {mean}")
    return {"makespan": total_makespan, "generations": total_generations}


# ---------------------------------------------------------------------------
# Distances and compact tasks.
# ---------------------------------------------------------------------------


def _ranking(times, measure: str) -> list[int]:
    if measure == "lsp":
        score = [sum(v * v for v in row) for row in times]
    else:  # lst
        score = [sum(row) for row in times]
    return sorted(range(1, len(times) + 1), key=lambda job: (-score[job - 1], job))


def cos_floor(times, selected) -> float:
    """Closed-form floor on cos(theta) between the padded rows of
    ``selected`` and the whole instance."""
    n, m = len(times), len(times[0])
    p_sq = sum(v * v for row in times for v in row)
    q_sq = sum(v * v for job in selected for v in times[job - 1])
    return (m / (2.0 * (n * m - 1))) * (n * q_sq / p_sq - len(selected))


def padded_cosine(times, selected) -> float:
    """Cosine between the mean-centred padded compact task and the instance."""
    keep = set(selected)
    q = [v if i + 1 in keep else 0 for i, row in enumerate(times) for v in row]
    p = [v for row in times for v in row]
    q_mean, p_mean = sum(q) / len(q), sum(p) / len(p)
    qc = [v - q_mean for v in q]
    pc = [v - p_mean for v in p]
    dot = sum(a * b for a, b in zip(qc, pc))
    return dot / math.sqrt(sum(a * a for a in qc) * sum(b * b for b in pc))


def check_sweep_rows(rows: list[dict], times, measures: list[str], ratios: list[int]) -> None:
    """Distance-sweep rows: 0 <= d <= 1 and cos_theta above its floor.

    For lsp and lst the critical set is recomputed here, so the floor, the
    cosine and the distance are checked against their closed forms. Every
    measure's floor lies between that of the g lowest-energy rows and that
    of lsp, which keeps the g highest-energy rows.
    """
    n = len(times)
    expected = {(meas, ratio) for meas in measures for ratio in ratios}
    got = [(r["measure"], int(r["ratio"])) for r in rows]
    require(len(got) == len(expected) and set(got) == expected,
            "sweep rows do not cover every (measure, ratio) once")
    energy = sorted(range(1, n + 1), key=lambda job: sum(v * v for v in times[job - 1]))
    for r in rows:
        what = f"sweep row {r['measure']}-{r['ratio']}"
        ratio = int(r["ratio"])
        d, cos, bound = float(r["d"]), float(r["cos_theta"]), float(r["bound"])
        g = n * ratio // 100
        require(0.0 <= d <= 1.0, f"{what}: d = {d} outside [0, 1]")
        require(cos >= bound - 1e-9, f"{what}: cos_theta {cos} below its floor {bound}")
        top = cos_floor(times, energy[-g:])
        low = cos_floor(times, energy[:g])
        require(low - 1e-8 <= bound <= top + 1e-8,
                f"{what}: floor {bound} outside [{low}, {top}]")
        if r["measure"] in ("lsp", "lst"):
            selected = _ranking(times, r["measure"])[:g]
            want = cos_floor(times, selected)
            require(abs(bound - want) < 1e-8, f"{what}: floor {bound}, closed form gives {want}")
            want_cos = padded_cosine(times, selected)
            require(abs(cos - want_cos) < 1e-8, f"{what}: cos_theta {cos}, recomputed {want_cos}")
            want_d = math.sqrt((1 - want_cos) / (1 + want_cos)) if want_cos > 0 else 1.0
            require(abs(d - want_d) < 1e-7, f"{what}: d {d}, recomputed {want_d}")


def check_eat_file(path: Path, report: str, times, ratio: int) -> list[list[int]]:
    """An lsp compact task keeps the top rows by squared sum: the file holds
    their rows in canonical format and the report (``S = ...``) their jobs."""
    lines = [ln.split() for ln in path.read_text().splitlines() if ln.strip()]
    g, m = int(lines[0][0]), int(lines[0][1])
    rows = [[int(v) for v in ln] for ln in lines[1:]]
    require(g == len(times) * ratio // 100 and m == len(times[0]) and len(rows) == g,
            f"{path.name}: shape {g}x{m}")
    top = _ranking(times, "lsp")[:g]
    require(rows == [times[job - 1] for job in top],
            f"{path.name}: rows are not the top-{g} squared-sum jobs")
    require(f"S = {' '.join(map(str, top))}" in report, f"build-eat reported {report!r}")
    return rows


def check_printed_schedule(text: str, times, what: str) -> None:
    """``permutation = ...`` and ``makespan = ...`` lines of a CLI report."""
    fields = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    require("permutation" in fields and "makespan" in fields, f"{what}: no schedule printed")
    perm = [int(tok) for tok in fields["permutation"].split()]
    check_schedule(times, perm, int(fields["makespan"]), what)
