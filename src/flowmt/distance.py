"""Normalized distance between flowshop instances.

Two instances whose matrices differ only by a positive scale and a uniform
shift rank every schedule identically, so the distance from task Q to task P
is measured against the whole family {t*P + b*E : t > 0} after mean-centering
both matrices. The result is the angle-based value in [0, 1]: 0 means the
tasks are equivalent up to scale/shift, 1 means no usable similarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import JobIndexError, ParameterError, ShapeError
from .instance import ProblemMatrix

__all__ = [
    "DistanceResult",
    "itdm",
    "zero_pad",
    "cos_theta_lower_bound",
]


def _as_array(matrix) -> np.ndarray:
    if isinstance(matrix, ProblemMatrix):
        return matrix.p.astype(np.float64)
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        row, col = bad[0]
        raise ParameterError(
            f"entry {arr[row, col]} at row {row + 1}, column {col + 1} is not finite"
        )
    return arr


@dataclass
class DistanceResult:
    d: float        # normalized distance in [0, 1]
    t_star: float   # optimal scale, >= 0
    b_star: float   # optimal uniform shift
    cos_theta: float


def itdm(Q, P) -> DistanceResult:
    """Normalized inter-task distance from task Q to task P's scale/shift family.

    Computed from the angle between the centered matrices as
    sin / (1 + cos), the algebraic twin of sqrt(2 / (1 + cos) - 1) with the
    sine taken from the actual fit residual, so exact family members come out
    at working precision instead of sqrt-amplified rounding noise. When
    cos <= 0 or either matrix is constant the nearest family member is the
    origin: d = 1 with t* = 0.
    """
    q = _as_array(Q)
    p = _as_array(P)
    if q.shape != p.shape:
        raise ShapeError(f"shape mismatch {q.shape} vs {p.shape}")
    qc = q - q.mean()
    pc = p - p.mean()
    q_norm = float(np.linalg.norm(qc))
    p_norm = float(np.linalg.norm(pc))
    if q_norm == 0.0 or p_norm == 0.0:
        # A constant matrix ranks all schedules equally: no direction to match.
        return DistanceResult(d=1.0, t_star=0.0, b_star=float(q.mean()), cos_theta=0.0)
    dot = float((pc * qc).sum())
    cos = max(-1.0, min(1.0, dot / (p_norm * q_norm)))
    if cos <= 0.0:
        # Nearest point on the nonnegative ray is the origin.
        return DistanceResult(d=1.0, t_star=0.0, b_star=float(q.mean()), cos_theta=cos)
    t_star = dot / p_norm**2  # the least-squares scale, positive here
    residual = float(np.linalg.norm(qc - t_star * pc))
    sin = residual / q_norm
    d = min(1.0, sin / (1.0 + cos))
    b_star = float(q.mean() - t_star * p.mean())
    return DistanceResult(d=d, t_star=t_star, b_star=b_star, cos_theta=cos)


def _critical_rows(S: Iterable[int], n: int) -> np.ndarray:
    """The 0-based rows of the critical set S of an n-job task, sorted and each once."""
    jobs = sorted(set(S))
    if not jobs:
        raise ParameterError("critical set must be non-empty")
    for job in jobs:
        if not 1 <= job <= n:
            raise JobIndexError(f"critical job {job} outside 1..{n}")
    return np.asarray(jobs) - 1


def zero_pad(matrix: ProblemMatrix, S: Iterable[int]) -> ProblemMatrix:
    """``matrix`` with every row outside the critical set S set to zero.

    Zero rows do not change any schedule's makespan over the jobs in S, so
    this is the compact auxiliary task's size-matched stand-in for distance
    work.
    """
    rows = _critical_rows(S, matrix.n)
    out = np.zeros_like(matrix.p)
    out[rows] = matrix.p[rows]
    return ProblemMatrix(out)


def cos_theta_lower_bound(P, S: Iterable[int]) -> float:
    """Closed-form floor on cos(theta) between zero_pad(P, S) and P.

    Value: (m / (2*(n*m - 1))) * (n * ||Q||_F^2 / ||P||_F^2 - g), where Q keeps
    only the rows in S. Larger selected-row energy raises the floor, which is
    why top squared-sum rows are the best critical set. An instance whose
    times are all 0 has no floor: the ratio is 0/0.
    """
    p = _as_array(P)
    n, m = p.shape
    if n * m == 1:
        raise ParameterError("bound undefined for a 1x1 instance")
    rows = p[_critical_rows(S, n)]
    g = len(rows)
    p_sq = (p * p).sum()
    if p_sq == 0:
        raise ParameterError("bound undefined for an instance whose times are all 0")
    # one sum over the kept rows; processing times are integers, so every
    # partial sum is exact below 2^53 and the order of summation cannot show
    q_sq = (rows * rows).sum()
    return float((m / (2.0 * (n * m - 1))) * (n * q_sq / p_sq - g))
