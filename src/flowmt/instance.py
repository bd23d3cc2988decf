"""Flowshop instances: processing-time matrices, makespan evaluation and file I/O.

Jobs and machines are numbered from 1 in every public interface. Processing
times are nonnegative integers and all makespan arithmetic is exact integer
arithmetic (Python ints, or in the batch kernel the narrowest of int16,
int32 and int64 that cannot overflow), so no tolerance is ever involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyScheduleError,
    InvalidPermutationError,
    JobIndexError,
    ParameterError,
    ParseError,
)

__all__ = [
    "ProblemMatrix",
    "Instance",
    "makespan",
    "lower_bound",
    "parse_instance",
    "write_instance",
    "generate_taillard",
]


@dataclass(eq=False)
class ProblemMatrix:
    """An n x m matrix of processing times; row i holds job i's times.

    ``p`` is the matrix's own read-only, C-contiguous int64 copy of the
    checked times, so no later write to the caller's array reaches it.
    """

    p: np.ndarray

    def __post_init__(self):
        # an integer array is checked as a whole; anything else is checked entry
        # by entry as Python objects, so no value is rounded, parsed or
        # wrapped on its way to int64
        integer_array = isinstance(self.p, np.ndarray) and self.p.dtype.kind in "iu"
        arr = self.p if integer_array else np.array(self.p, dtype=object)
        if arr.ndim != 2:
            raise ParameterError(f"processing-time matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ParameterError("matrix needs at least one job and one machine")
        if not integer_array:
            for (row, col), value in np.ndenumerate(arr):
                if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
                    raise ParameterError(
                        f"processing time {value!r} of job {row + 1} on machine {col + 1} "
                        "is not an integer"
                    )
        if int(arr.min()) < 0:
            raise ParameterError("processing times must be nonnegative")
        # every makespan is at most the sum of all times, so int64 batch
        # evaluation cannot overflow when no time exceeds this share
        if int(arr.max()) > np.iinfo(np.int64).max // arr.size:
            raise ParameterError("processing times too large for 64-bit makespans")
        self.p = np.array(arr, dtype=np.int64, order="C")
        self.p.flags.writeable = False

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @property
    def m(self) -> int:
        return self.p.shape[1]

    def rows(self) -> list:
        """Processing times as a fresh nested list (fast row lookup in hot loops)."""
        return self.p.tolist()


@dataclass(eq=False)
class Instance:
    """A named benchmark instance with optional best-known makespan."""

    matrix: ProblemMatrix
    name: str = ""
    best_known: int | None = None

    def __post_init__(self):
        if self.best_known is not None:
            lb = lower_bound(self.matrix)
            if self.best_known < lb:
                raise ParameterError(
                    f"best_known {self.best_known} below trivial lower bound {lb}"
                )

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def m(self) -> int:
        return self.matrix.m


def _check_permutation(n: int, perm: Sequence[int]) -> None:
    if len(perm) == 0:
        raise EmptyScheduleError("cannot evaluate an empty schedule")
    seen = set()
    for job in perm:
        if not 1 <= job <= n:
            raise JobIndexError(f"job {job} outside 1..{n}")
        if job in seen:
            raise InvalidPermutationError(f"job {job} appears more than once")
        seen.add(job)


def makespan(matrix: ProblemMatrix, perm: Sequence[int]) -> int:
    """Completion time of the last listed job on the last machine.

    Accepts partial permutations: only the listed jobs are scheduled, in the
    given order, under the usual flowshop recursion.
    """
    _check_permutation(matrix.n, perm)
    return _makespan_unchecked(matrix.rows(), matrix.m, perm)


def _makespan_unchecked(rows: list, m: int, perm: Sequence[int]) -> int:
    # Rolling completion-time array over machines; c[j] is the completion
    # time of the most recent job on machine j+1.
    c = [0] * m
    for job in perm:
        row = rows[job - 1]
        t = c[0] + row[0]
        c[0] = t
        for j in range(1, m):
            cj = c[j]
            if cj > t:
                t = cj
            t += row[j]
            c[j] = t
    return c[m - 1]


def _makespans(p: np.ndarray, seqs) -> np.ndarray:
    """Makespans of equal-length (possibly partial) 1-based job sequences,
    one per row of ``seqs``, evaluated as a single batch; returned as int64.

    The state is the (m, rows) array of completion times of every row's
    latest job. Position by position, and machine by machine within a
    position, all rows advance at once: C[j] = max(C[j], C[j-1]) + p[job, j],
    one vector max and one vector add over the rows. Running along the job
    axis instead, as ``search._insert_best``'s heads-and-tails pass does,
    pays about 4 ns per element for cumsum and maximum.accumulate, so this
    orientation wins on wide batches.

    Each position gathers the rows' whole job rows from a job-major table
    (contiguous copies of m times each) and transposes them once into the
    (m, rows) times buffer; a machine-major gather copies one element at a
    time and was about half the kernel's cost.

    The table and the state take the narrowest of int16, int32 and int64
    that holds every completion time. In an L-job sequence on m machines the
    completion time of position i on machine j is the length of a path of at
    most L + m - 1 cells through the first i rows and j columns of the
    sequence's time grid, so none exceeds (L + m - 1) * max p. Taillard's
    times of 1-99 keep that within int16 up to 200x20, and each narrower
    width halves the bytes each max and add moves. Against an int64
    machine-major gather, on the walk batches of whole engine runs (min of
    15 alternations), int32 state took 70 ms instead of 99 for a 100x20
    real-key run's 25500 rows and 35 ms instead of 43 for a 50x10
    permutation run's 51000 rows, while a 20x5 run's narrow batches (2200
    rows in 20) took 3.2 ms instead of 2.8. int16 state and 16-bit rows then
    scored the 100x20 run's rows in a median 53 ms against int32's 65, faster in
    40 of 40 interleaved pairs; two shared cores, Python 3.11, numpy 2.4.
    """
    seqs = np.asarray(seqs)
    n, m = p.shape
    bound = (seqs.shape[-1] + m - 1) * int(p.max())
    dtype = next(t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)
    table = np.zeros((n + 1, m), dtype=dtype)  # row 0 unused: jobs index it 1-based
    table[1:] = p
    rows = np.empty((len(seqs), m), dtype=dtype)
    done = np.zeros((m, len(seqs)), dtype=dtype)
    times = np.empty_like(done)
    first, rest = done[0], list(zip(done[1:], times[1:], done[:-1]))
    for jobs in seqs.T:
        # the jobs are valid; under the default mode="raise" numpy would
        # gather into a temporary copy of ``rows`` on every call
        np.take(table, jobs, axis=0, out=rows, mode="clip")
        np.copyto(times, rows.T)
        first += times[0]
        for done_j, times_j, done_prev in rest:
            np.maximum(done_j, done_prev, out=done_j)
            done_j += times_j
    return done[-1].astype(np.int64)


def lower_bound(matrix: ProblemMatrix) -> int:
    """max(max job row sum, max machine column sum); never above the optimum."""
    p = matrix.p
    return int(max(p.sum(axis=1).max(), p.sum(axis=0).max()))


# ---------------------------------------------------------------------------
# File formats.
#
# canonical: line 1 "n m", then n job-major lines of m integers.
# taillard:  line 1 "n m [seed [upper [lower]]]" (extra tokens ignored; the
#            seed is checked as an integer, not kept), then m machine-major
#            lines of n integers.
# The writer emits canonical format only.
# ---------------------------------------------------------------------------


def _parse_int(token: str, line_no: int, col_no: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"non-numeric token {token!r}", line_no, col_no) from None
    return value


def _data_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if raw.strip():
            yield line_no, raw.split()


def parse_instance(text: str, fmt: str = "canonical", name: str = "") -> Instance:
    """Parse instance text in ``canonical`` or ``taillard`` format."""
    if fmt not in ("canonical", "taillard"):
        raise ParameterError(f"unknown format {fmt!r}")
    lines = list(_data_lines(text))
    if not lines:
        raise ParseError("empty instance file", 1)

    head_no, head = lines[0]
    if len(head) < 2:
        raise ParseError("header needs at least 'n m'", head_no)
    if fmt == "canonical" and len(head) != 2:
        raise ParseError("canonical header must be exactly 'n m'", head_no)
    n = _parse_int(head[0], head_no, 1)
    m = _parse_int(head[1], head_no, 2)
    if n < 1 or m < 1:
        raise ParseError(f"invalid dimensions {n} x {m}", head_no)

    best_known = None
    if fmt == "taillard":
        if len(head) >= 3:
            _parse_int(head[2], head_no, 3)
        if len(head) >= 4:
            best_known = _parse_int(head[3], head_no, 4)

    expect_rows = n if fmt == "canonical" else m
    expect_cols = m if fmt == "canonical" else n
    body = lines[1:]
    if len(body) != expect_rows:
        raise ParseError(
            f"expected {expect_rows} data lines, found {len(body)}",
            body[-1][0] if body else head_no,
        )

    # every line's count is checked before the header's shape is allocated
    for line_no, tokens in body:
        if len(tokens) != expect_cols:
            raise ParseError(f"expected {expect_cols} values, found {len(tokens)}", line_no)
    values = np.empty((expect_rows, expect_cols), dtype=np.int64)
    limit = np.iinfo(np.int64).max // values.size  # the largest time ProblemMatrix accepts
    for r, (line_no, tokens) in enumerate(body):
        for cidx, tok in enumerate(tokens, start=1):
            v = _parse_int(tok, line_no, cidx)
            if v < 0:
                raise ParseError(f"negative processing time {v}", line_no, cidx)
            if v > limit:
                raise ParseError(f"processing time {v} too large for 64-bit makespans", line_no, cidx)
            values[r, cidx - 1] = v

    matrix = ProblemMatrix(values if fmt == "canonical" else values.T)
    try:
        return Instance(matrix, name=name, best_known=best_known)
    except ParameterError as exc:  # only best_known, the header's fourth token, is checked
        raise ParseError(str(exc), head_no, 4) from None


def write_instance(instance: Instance) -> str:
    """Serialize in canonical (job-major) format."""
    mat = instance.matrix
    out = [f"{mat.n} {mat.m}"]
    for row in mat.rows():
        out.append(" ".join(str(v) for v in row))
    return "\n".join(out) + "\n"


# Minimal-standard LCG used by the classic flowshop benchmark generator:
# x <- 16807 * x mod (2^31 - 1), times uniform on [1, 99], drawn machine-major.
_LCG_MOD = 2**31 - 1
_LCG_MULT = 16807


def generate_taillard(n: int, m: int, seed: int) -> Instance:
    """Deterministically regenerate a benchmark instance from its time seed."""
    if not 1 <= seed <= 2**31 - 2:
        raise ParameterError(f"seed {seed} outside [1, 2^31-2]")
    if n < 1 or m < 1:
        raise ParameterError("need n >= 1 and m >= 1")
    state = seed
    p = np.empty((n, m), dtype=np.int64)
    for j in range(m):
        for i in range(n):
            state = (_LCG_MULT * state) % _LCG_MOD
            p[i, j] = 1 + int((state / _LCG_MOD) * 99)
    return Instance(ProblemMatrix(p), name=f"gen{n}x{m}s{seed}")

