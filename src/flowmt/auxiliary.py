"""Job-importance scoring and construction of economical auxiliary tasks.

A compact auxiliary task keeps only the rows of the most important jobs. Four
measures score jobs directly (higher is more important):

  lsp  sum of squared processing times across machines
  lst  sum of processing times across machines
  kk1  min of two machine-weighted row sums (weights fall/rise with the
       machine index)
  kk2  row sum corrected by a weighted head-tail asymmetry term

and four rank jobs by their position in a reference sequence (earlier is more
important): sr0/sr1/sr2 use the insertion heuristic seeded by lst/kk1/kk2
priorities, rnd uses one shuffle from the caller's rng. Ties always break
toward the lower job index.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import ParameterError
from .instance import ProblemMatrix
from .search import neh

__all__ = ["MEASURES", "EatSpec", "check_pairing", "importance_scores", "critical_count",
           "build_eat"]

MEASURES = ("lsp", "lst", "kk1", "kk2", "sr0", "sr1", "sr2", "rnd")

_VALUE_MEASURES = ("lsp", "lst", "kk1", "kk2")


@dataclass(eq=False)
class EatSpec:
    """A compact auxiliary task: which jobs were kept and their rows.

    ``ranking`` lists all jobs in descending importance; the critical set is
    its first ``g`` entries and ``submatrix`` holds those rows in the same
    order.
    """

    ranking: tuple[int, ...]
    g: int
    submatrix: ProblemMatrix

    @property
    def selected(self) -> tuple[int, ...]:
        return self.ranking[: self.g]

    @property
    def remaining(self) -> tuple[int, ...]:
        """Non-critical jobs, still in descending importance."""
        return self.ranking[self.g :]


def check_pairing(measure: str | None = None, k: int | None = None) -> str | None:
    """Check an importance pairing's measure name and sampling ratio, each
    when given; returns the measure's lower-case name."""
    kind = None if measure is None else measure.lower()
    if kind is not None and kind not in MEASURES:
        raise ParameterError(f"unknown importance measure {measure!r}")
    if k is not None and not 10 <= k <= 90:
        raise ParameterError(f"sampling ratio {k} outside 10..90")
    return kind


def _kk1_scores(rows: list, m: int) -> list[int]:
    base = (m - 1) * (m - 2) // 2  # (m-1)(m-2) is even
    w_a = [base + m - j for j in range(1, m + 1)]
    w_b = w_a[::-1]
    return [min(sum(map(mul, row, w_a)), sum(map(mul, row, w_b))) for row in rows]


def _kk2_scores(p: np.ndarray) -> np.ndarray:
    n, m = p.shape
    t = p.sum(axis=1).astype(np.float64)
    half = m // 2
    if half == 0:
        return t
    j = np.arange(1, half + 1)
    weights = (j - 0.75) / (half - 0.75)
    left = p[:, half - j]               # columns half, half-1, ..., 1 (1-based)
    right = p[:, (m + 1) // 2 + j - 1]  # columns ceil(m/2)+1, ..., m (1-based)
    u = ((left - right) * weights).sum(axis=1)
    return np.minimum(t + u, t - u)


def importance_scores(
    matrix: ProblemMatrix, measure: str, rng=None
) -> tuple[list[float], list[int]]:
    """Per-job scores plus the full descending-importance ranking.

    lsp, lst and kk1 are integer sums, ranked exactly from Python ints: in
    float64, sums above 2^53 can round to ties and rank by job index. kk2's
    weights are fractional, so it is scored and ranked in float64.
    """
    kind = check_pairing(measure)
    n = matrix.n
    jobs = range(1, n + 1)

    if kind in _VALUE_MEASURES:
        rows = matrix.rows()
        if kind == "lsp":
            keys = [sum(map(mul, row, row)) for row in rows]
        elif kind == "lst":
            keys = [sum(row) for row in rows]
        elif kind == "kk1":
            keys = _kk1_scores(rows, matrix.m)
        else:
            keys = _kk2_scores(matrix.p).tolist()
        ranking = sorted(jobs, key=lambda job: (-keys[job - 1], job))
        return [float(key) for key in keys], ranking

    if kind == "rnd":
        if rng is None:
            raise ParameterError("rnd measure needs a seeded rng")
        perm = list(jobs)
        rng.shuffle(perm)
    else:
        priority_measure = {"sr0": "lst", "sr1": "kk1", "sr2": "kk2"}[kind]
        _, priority = importance_scores(matrix, priority_measure)
        perm = neh(matrix, priority)

    position = [0.0] * n
    for pos, job in enumerate(perm, start=1):
        position[job - 1] = float(pos)
    return position, perm  # earlier is more important, and positions never tie


def critical_count(n: int, k: int) -> int:
    """How many of ``n`` jobs a ``k`` percent auxiliary task keeps; it must
    keep at least one job and leave at least one out."""
    g = (n * k) // 100
    if g < 1:
        raise ParameterError(f"ratio {k}% selects no jobs on {n} jobs")
    if g >= n:
        raise ParameterError(f"ratio {k}% keeps all {n} jobs; nothing saved")
    return g


def build_eat(matrix: ProblemMatrix, measure: str, k: int, rng=None) -> EatSpec:
    """Keep the top k percent of jobs under the given measure."""
    kind = check_pairing(measure, k)
    g = critical_count(matrix.n, k)
    _, ranking = importance_scores(matrix, kind, rng)
    sub = matrix.p[np.array(ranking[:g]) - 1]
    return EatSpec(ranking=tuple(ranking), g=g, submatrix=ProblemMatrix(sub))
