"""Constructive and improvement heuristics: NEH insertion, INSERT local search,
and a simulated-annealing refiner for small auxiliary tasks."""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InvalidPermutationError, ParameterError
from .instance import ProblemMatrix, _makespan_unchecked

__all__ = ["neh", "insert_local_search", "solve_eat"]


def _insert_best(
    matrix: ProblemMatrix, seq: Sequence[int], jobs: Sequence[int], latest_ties: bool
) -> list[int]:
    """Insert ``jobs`` one at a time into ``seq``, each at the slot minimizing
    the partial makespan. Tied slots resolve to the latest one when
    ``latest_ties`` is set, otherwise to the earliest."""
    rows = matrix.rows()
    m = matrix.m
    seq = list(seq)
    for job in jobs:
        best_pos = 0
        best_cmax = None
        for pos in range(len(seq) + 1):
            cand = seq[:pos] + [job] + seq[pos:]
            cmax = _makespan_unchecked(rows, m, cand)
            if best_cmax is None or cmax < best_cmax or (latest_ties and cmax == best_cmax):
                best_cmax = cmax
                best_pos = pos
        seq.insert(best_pos, job)
    return seq


def neh(matrix: ProblemMatrix, priority: Sequence[int]) -> list[int]:
    """Insert jobs in the given priority order, each at its best position.

    Position ties keep the latest slot, so on a single machine (where every
    slot ties) the result is the priority order itself. With priority sorted
    by descending row sum this is the classic NEH construction.
    """
    jobs = list(priority)
    if sorted(jobs) != list(range(1, matrix.n + 1)):
        raise InvalidPermutationError("priority must order every job exactly once")
    return _insert_best(matrix, [], jobs, latest_ties=True)


def _check_iterations(iterations: int) -> None:
    if iterations < 0:
        raise ParameterError(f"iteration count must be nonnegative, got {iterations}")


def insert_local_search(matrix: ProblemMatrix, perm: Sequence[int], iterations: int, rng) -> list[int]:
    """Random INSERT walk: repeatedly pick two distinct jobs and move the
    later-positioned one directly before the earlier one.

    Runs for ``iterations`` moves and returns the best sequence seen, the
    input included, so the result never evaluates worse.
    """
    _check_iterations(iterations)
    cur = list(perm)
    if len(cur) < 2:
        return cur

    rows = matrix.rows()
    m = matrix.m
    best = list(cur)
    best_val = _makespan_unchecked(rows, m, cur)
    for _ in range(iterations):
        i, j = rng.sample(range(len(cur)), 2)
        if i > j:
            i, j = j, i
        job = cur.pop(j)
        cur.insert(i, job)
        val = _makespan_unchecked(rows, m, cur)
        if val < best_val:
            best_val = val
            best = list(cur)
    return best


def solve_eat(submatrix: ProblemMatrix, iterations: int, rng) -> list[int]:
    """Near-optimal schedule for a compact task: NEH seed plus annealing.

    The seed orders jobs by descending row sum. Annealing proposes random
    reinsertion moves under geometric cooling from T0 = m * mean(p) / 10 down
    to T0 / 100, accepting uphill moves with probability exp(-delta / T).
    Returns the best schedule seen, never worse than the seed.
    """
    _check_iterations(iterations)
    rows_sums = [(sum(row), job) for job, row in enumerate(submatrix.rows(), start=1)]
    priority = [job for _, job in sorted(rows_sums, key=lambda t: (-t[0], t[1]))]
    seed = neh(submatrix, priority)
    g = len(seed)
    if iterations == 0 or g < 2:
        return seed

    rows = submatrix.rows()
    m = submatrix.m
    cur = list(seed)
    cur_val = _makespan_unchecked(rows, m, cur)
    best = list(cur)
    best_val = cur_val
    t0 = m * (submatrix.p.mean() / 10.0)
    if t0 <= 0.0:
        t0 = 1.0
    alpha = 0.01 ** (1.0 / iterations)
    temp = t0
    for _ in range(iterations):
        a = rng.randrange(g)
        b = rng.randrange(g - 1)
        if b >= a:
            b += 1
        cand = list(cur)
        job = cand.pop(a)
        cand.insert(b, job)
        val = _makespan_unchecked(rows, m, cand)
        delta = val - cur_val
        if delta <= 0 or rng.random() < math.exp(-delta / temp):
            cur = cand
            cur_val = val
            if val < best_val:
                best_val = val
                best = list(cand)
        temp *= alpha
    return best
