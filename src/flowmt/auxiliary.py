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

import numpy as np

from .errors import ParameterError
from .instance import ProblemMatrix
from .search import neh

__all__ = ["MEASURES", "EatSpec", "importance_scores", "critical_count", "build_eat"]

MEASURES = ("lsp", "lst", "kk1", "kk2", "sr0", "sr1", "sr2", "rnd")

_VALUE_MEASURES = ("lsp", "lst", "kk1", "kk2")


@dataclass
class EatSpec:
    """A compact auxiliary task: which jobs were kept and their rows.

    ``ranking`` lists all jobs in descending importance; the critical set is
    its first ``g`` entries and ``submatrix`` holds those rows in the same
    order.
    """

    measure: str
    k: int
    ranking: tuple[int, ...]
    g: int
    submatrix: ProblemMatrix

    @property
    def selected(self) -> tuple[int, ...]:
        return self.ranking[: self.g]

    @property
    def S(self) -> frozenset[int]:
        return frozenset(self.ranking[: self.g])

    @property
    def remaining(self) -> tuple[int, ...]:
        """Non-critical jobs, still in descending importance."""
        return self.ranking[self.g :]


def _normalize_measure(measure: str) -> str:
    kind = measure.lower()
    if kind not in MEASURES:
        raise ParameterError(f"unknown importance measure {measure!r}")
    return kind


def _kk1_scores(p: np.ndarray) -> np.ndarray:
    n, m = p.shape
    base = (m - 1) * (m - 2) / 2.0
    j = np.arange(1, m + 1)
    w_a = base + m - j
    w_b = base + j - 1
    a = p @ w_a
    b = p @ w_b
    return np.minimum(a, b)


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
    """Per-job scores plus the full descending-importance ranking."""
    kind = _normalize_measure(measure)
    p = matrix.p.astype(np.float64)
    n = matrix.n
    jobs = range(1, n + 1)

    if kind in _VALUE_MEASURES:
        if kind == "lsp":
            scores = (p * p).sum(axis=1)
        elif kind == "lst":
            scores = p.sum(axis=1)
        elif kind == "kk1":
            scores = _kk1_scores(p)
        else:
            scores = _kk2_scores(p)
        values = [float(s) for s in scores]
        ranking = sorted(jobs, key=lambda job: (-values[job - 1], job))
        return values, ranking

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
    ranking = sorted(jobs, key=lambda job: (position[job - 1], job))
    return position, ranking


def critical_count(n: int, k: int) -> int:
    """How many of ``n`` jobs a ``k`` percent auxiliary task keeps; it must
    keep at least one job and leave at least one out."""
    g = (n * k) // 100
    if g < 1:
        raise ParameterError(f"ratio {k}% selects no jobs on {n} jobs")
    if g >= n:
        raise ParameterError(f"ratio {k}% keeps all {n} jobs; nothing saved")
    return g


def build_eat(
    matrix: ProblemMatrix,
    measure: str,
    k: int,
    rng=None,
    ranking=None,
) -> EatSpec:
    """Keep the top k percent of jobs under the given measure.

    ``ranking`` lets callers sweeping many ratios reuse one scoring pass; it
    must be the measure's own descending-importance order.
    """
    kind = _normalize_measure(measure)
    if not 10 <= k <= 90:
        raise ParameterError(f"sampling ratio {k} outside 10..90")
    g = critical_count(matrix.n, k)
    if ranking is None:
        _, ranking = importance_scores(matrix, kind, rng)
    elif sorted(ranking) != list(range(1, matrix.n + 1)):
        raise ParameterError("supplied ranking must order every job exactly once")
    selected = ranking[:g]
    sub = np.stack([matrix.p[job - 1] for job in selected])
    return EatSpec(
        measure=kind,
        k=k,
        ranking=tuple(ranking),
        g=g,
        submatrix=ProblemMatrix(sub),
    )
