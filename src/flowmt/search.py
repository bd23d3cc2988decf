"""Constructive and improvement heuristics: NEH insertion, the INSERT walk the
engine scores in batches, and a simulated-annealing refiner for small
auxiliary tasks."""

from __future__ import annotations

import math
from array import array
from typing import Sequence

import numpy as np

from .errors import InvalidPermutationError, ParameterError
from .instance import ProblemMatrix, _makespan_unchecked, _makespans

__all__ = ["neh", "solve_eat"]


def _insert_best(
    matrix: ProblemMatrix,
    rows: Sequence[Sequence[int]],
    jobs: Sequence[int],
    latest_ties: bool,
    stop=None,
) -> tuple[list[list[int]], list[int]]:
    """Grow a batch of one or more equal-length partial sequences by the
    same ``jobs``; returns the grown rows and each one's makespan, all plain
    ints, or two empty lists when ``stop``, a zero-argument check called
    once before each insertion step, returns true. Without ``stop`` every
    step runs.

    Each step inserts the next job into every row at that row's slot
    minimizing its partial makespan; tied slots resolve to the latest one
    when ``latest_ties`` is set, otherwise to the earliest. Rows never
    interact, so a batch gives each row what a batch of one would. A row's
    makespan is its least insertion value at the last step, so the list is
    empty when ``jobs`` is. The rows are copied once into one integer array
    that grows in place.

    Every slot of every row is scored at once from heads and tails
    (Taillard 1990): the heads are the completion times of the current row,
    the tails the times from each job's start on a machine to the end of the
    schedule. A job placed at slot ``pos`` finishes on machine j at
    f[j] = max(f[j-1], head[j][pos-1]) + p[j], and the schedule then ends at
    max_j(f[j] + tail[j][pos]). That is O(k*m) per job instead of O(k^2*m).
    Tails are the heads of the reversed row on the reversed machines, so one
    pass along the job axis over the rows and their reversals (job index
    n + i reads job i's time on machine m-1-j) fills both: with T the prefix
    sums of machine j's times along a row, C_j = T + cummax(C_{j-1} - T + P_j),
    written machine by machine into ``edges``, allocated once per call, whose
    column 0 stays zero. Five 100x20 RI patches take about 19 ms as one batch
    against 44 ms one by one, and one row runs about 1.5x faster than with
    separate head and tail passes.
    """
    pt = matrix.p.T
    n, m = matrix.n, matrix.m
    both_pt = np.concatenate([pt, pt[::-1]], axis=1)
    count, start = len(rows), len(rows[0])
    seqs = np.empty((count, start + len(jobs)), dtype=np.intp)
    seqs[:, :start] = rows
    edges = np.zeros((m, 2 * count, seqs.shape[1] + 1), dtype=np.int64)
    heads, tails = edges[:, :count], edges[::-1, count:]
    total = np.cumsum(pt, axis=0)  # a lone job's completion on every machine
    scores = None
    for k, job in enumerate(jobs, start=start):
        if stop is not None and stop():
            return [], []
        if k:
            order = seqs[:, :k] - 1
            times = np.take(both_pt, np.concatenate([order, order[:, ::-1] + n]), axis=1)
            done = edges[:, :, 1 : k + 1]
            np.cumsum(times, axis=2, out=done)  # T, and machine 0's completions
            times -= done  # P - T
            for step, prev, out in zip(times[1:], done[:-1], done[1:]):
                step += prev
                np.maximum.accumulate(step, axis=1, out=step)
                out += step
        lone = total[:, job - 1, None, None]
        finish = np.maximum.accumulate(heads[:, :, : k + 1] - lone + pt[:, job - 1, None, None])
        finish += lone
        finish += tails[:, :, k::-1]
        scores = finish.max(axis=0)
        if latest_ties:
            slots = k - scores[:, ::-1].argmin(axis=1)
        else:
            slots = scores.argmin(axis=1)
        for row, pos in zip(seqs, slots.tolist()):
            row[pos + 1 : k + 1] = row[pos:k]
            row[pos] = job
    return seqs.tolist(), [] if scores is None else scores.min(axis=1).tolist()


def neh(matrix: ProblemMatrix, priority: Sequence[int]) -> list[int]:
    """Insert jobs in the given priority order, each at its best position.

    Position ties keep the latest slot, so on a single machine (where every
    slot ties) the result is the priority order itself. With priority sorted
    by descending row sum this is the classic NEH construction.
    """
    jobs = list(priority)
    if sorted(jobs) != list(range(1, matrix.n + 1)):
        raise InvalidPermutationError("priority must order every job exactly once")
    return _insert_best(matrix, [[]], jobs, latest_ties=True)[0][0]


def _position_pairs(n: int, count: int, getrandbits) -> list[int]:
    """``count`` pairs of distinct positions below ``n`` (``n >= 2``), each in
    increasing order, flat: ``[i0, j0, i1, j1, ...]``.

    Each pair makes exactly the ``getrandbits`` calls that ``random.sample``
    makes for two of ``range(n)`` on CPython 3.10-3.11, and is that sample
    sorted. There, ``_randbelow(n)`` redraws ``getrandbits(n.bit_length())``
    while the value is >= n. The first position is ``_randbelow(n)``. For
    n <= 21 ``sample`` picks from a pool, where the first pick's slot now holds
    position n-1: the second is ``_randbelow(n - 1)``, read as n-1 when it
    equals the first. Above 21 it keeps a set and redraws ``_randbelow(n)``
    until the value is new. Without the wrapper calls, and with one loop for
    all the pairs, this is several times faster than ``sample``; a test pins
    the stream against ``random.sample`` itself.
    """
    k = n.bit_length()
    pool, last = n <= 21, n - 1
    k_last = last.bit_length()
    out = []
    put = out.append
    for _ in range(count):
        a = getrandbits(k)
        while a >= n:
            a = getrandbits(k)
        if pool:
            b = getrandbits(k_last)
            while b >= last:
                b = getrandbits(k_last)
            if b == a:
                b = last
        else:
            b = getrandbits(k)
            while b >= n or b == a:
                b = getrandbits(k)
        if a < b:
            put(a)
            put(b)
        else:
            put(b)
            put(a)
    return out


def _walk_batch(largest_job: int) -> array:
    """An empty packed walk batch for jobs numbered up to ``largest_job``:
    16-bit (typecode ``"h"``) while every job number fits in it, that is up
    to 32767, else 32-bit (``"i"``). A walk batch is a generation's largest
    allocation, and a job number is all that its cells hold, so the narrower
    one is exact and halves it."""
    return array("h" if largest_job <= 0x7FFF else "i")


def _draw_walk(perm: Sequence[int], iterations: int, rng, rows: array) -> None:
    """Append a random INSERT walk from ``perm`` to the packed batch ``rows``:
    each move picks two distinct positions and moves the later job directly
    before the earlier one.

    Runs ``iterations`` moves (none for a single job) and appends the start,
    then the sequence after each move, row after row, in the batch's own
    typecode (see ``_walk_batch``); the batch's earlier rows stay as they are.
    Every move is applied whatever its value, so the walk is drawn first and
    ``_walk_minima`` scores its sequences with the rest of the batch.
    """
    cur = array(rows.typecode, perm)
    rows.extend(cur)
    n = len(cur)
    if n < 2:
        return
    pairs = iter(_position_pairs(n, iterations, rng.getrandbits))
    pop, insert, extend = cur.pop, cur.insert, rows.extend
    for i, j in zip(pairs, pairs):
        insert(i, pop(j))
        extend(cur)


def _walk_minima(
    p: np.ndarray, rows: array, walks: int, length: int
) -> tuple[list[list[int]], list[int]]:
    """Score ``walks`` packed walks of ``length`` jobs and equal move counts in
    one batch; returns each walk's best sequence and its makespan as lists.
    The rows are read in place, in the batch's own typecode."""
    seqs = np.frombuffer(rows, dtype=rows.typecode).reshape(-1, length)
    values = _makespans(p, seqs).reshape(walks, -1)
    # argmin keeps the first of tied minima, as a strict-improvement walk would
    best = values.argmin(axis=1)
    picked = np.arange(walks) * values.shape[1] + best
    return seqs[picked].tolist(), values.ravel()[picked].tolist()


def solve_eat(submatrix: ProblemMatrix, iterations: int, rng) -> list[int]:
    """Near-optimal schedule for a compact task: NEH seed plus annealing.

    The seed orders jobs by descending row sum. Annealing proposes random
    reinsertion moves under geometric cooling from T0 = m * mean(p) / 10 down
    to T0 / 100, accepting uphill moves with probability exp(-delta / T).
    Returns the best schedule seen, never worse than the seed.
    """
    if iterations < 0:
        raise ParameterError(f"iteration count must be nonnegative, got {iterations}")
    rows = submatrix.rows()
    rows_sums = [(sum(row), job) for job, row in enumerate(rows, start=1)]
    priority = [job for _, job in sorted(rows_sums, key=lambda t: (-t[0], t[1]))]
    seed = neh(submatrix, priority)
    g = len(seed)
    if iterations == 0 or g < 2:
        return seed

    # scalar: each value gates the next draw, and the batch kernel is built for
    # wide batches: one sequence costs 315 vs 13 µs at 20x5, 5.7 ms vs 192 µs at 100x20
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
