"""Encoding bridges and partial-solution patching.

Real-key individuals decode to job sequences through ranked-order values, an
auxiliary-task sequence is the projection of a full sequence onto the critical
jobs, and a partial solution grows into a full one by inserting the remaining
jobs one at a time under one of four position policies.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ParameterError, PartitionError, ShapeError
from .instance import ProblemMatrix
from .search import _insert_best

__all__ = [
    "PATCH_STRATEGIES",
    "rov_decode",
    "project_to_eat",
    "patch",
    "perm_to_vector",
    "default_key_values",
]

PATCH_STRATEGIES = ("ri", "ei", "oi", "ai")


def rov_decode(x: Sequence[float]) -> list[int]:
    """Ranked-order-value decoding: entry l becomes the ascending rank of x_l.

    Ties give the lower index the lower rank. The output is read as a job
    sequence: position i holds the job processed i-th.
    """
    order = sorted(range(len(x)), key=x.__getitem__)  # stable: ties keep index order
    perm = [0] * len(x)
    for rank, idx in enumerate(order, start=1):
        perm[idx] = rank
    return perm


def project_to_eat(perm: Sequence[int], S: Iterable[int]) -> list[int]:
    """Subsequence of ``perm`` restricted to the jobs in ``S``, order kept."""
    members = set(S)
    return [job for job in perm if job in members]


def default_key_values(d: int) -> list[float]:
    """Evenly spaced interior keys for encoding a bare permutation."""
    return [l / (d + 1) for l in range(1, d + 1)]


def perm_to_vector(values: Sequence[float], target: Sequence[int]) -> list[float]:
    """Rearrange a key multiset so it decodes to ``target``.

    Entry l receives the (target_l)-th smallest of ``values``; with distinct
    values the round trip through rov_decode reproduces ``target`` exactly.
    """
    if len(values) != len(target):
        raise ShapeError(f"{len(values)} keys cannot encode {len(target)} positions")
    ordered = sorted(values)
    return [ordered[rank - 1] for rank in target]


def patch(
    strategy: str,
    pi_eat: Sequence[int],
    remaining: Sequence[int],
    matrix: ProblemMatrix,
    rng=None,
) -> list[int]:
    """Grow a critical-job sequence into a complete schedule.

    ``remaining`` must list the non-critical jobs in descending importance;
    together with ``pi_eat`` it must cover every job exactly once. Each step
    takes the head of ``remaining`` and inserts it:

      ri  at the position minimizing the partial makespan (ties: earliest)
      ei  at the end
      oi  at the end when the current length is odd, else at the front
      ai  at a uniformly random position

    The relative order of the jobs already placed never changes.
    """
    kind = strategy.lower()
    if kind not in PATCH_STRATEGIES:
        raise ParameterError(f"unknown patch strategy {strategy!r}")
    placed = set(pi_eat)
    rest = list(remaining)
    if placed & set(rest):
        raise PartitionError("partial solution and remaining jobs overlap")
    if placed | set(rest) != set(range(1, matrix.n + 1)):
        raise PartitionError("partial solution plus remaining jobs must cover all jobs")
    if len(pi_eat) + len(rest) != matrix.n:
        raise PartitionError("partial solution or remaining jobs repeat a job")
    if kind == "ai" and rest and rng is None:
        raise ParameterError("ai strategy needs a seeded rng")

    if kind == "ri":
        return _insert_best(matrix, [pi_eat], rest, latest_ties=False)[0][0]
    seq = list(pi_eat)
    for job in rest:
        if kind == "ei":
            seq.append(job)
        elif kind == "oi":
            if len(seq) % 2 == 1:
                seq.append(job)
            else:
                seq.insert(0, job)
        else:
            seq.insert(rng.randrange(len(seq) + 1), job)
    return seq
