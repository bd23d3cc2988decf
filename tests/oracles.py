"""Independent reference implementations used only by the tests.

Everything here is written against the raw definitions, separately from the
library code paths it checks: a full-table completion-time recursion, a
brute-force optimum, a second insertion heuristic, a numeric scale/shift
minimizer, a Schrage-form reimplementation of the benchmark generator, and
the real-key mating operators as plain ``random.gauss``/``min``/``max`` loops.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import minimize


def dp_makespan(times: list[list[int]], perm: list[int]) -> int:
    """Completion time via the full dynamic-programming table.

    times is job-major (times[i][j] = job i+1 on machine j+1); perm is 1-based
    and may be partial.
    """
    k = len(perm)
    m = len(times[0])
    table = [[0] * m for _ in range(k)]
    table[0][0] = times[perm[0] - 1][0]
    for j in range(1, m):
        table[0][j] = table[0][j - 1] + times[perm[0] - 1][j]
    for i in range(1, k):
        row = times[perm[i] - 1]
        table[i][0] = table[i - 1][0] + row[0]
        for j in range(1, m):
            table[i][j] = max(table[i - 1][j], table[i][j - 1]) + row[j]
    return table[k - 1][m - 1]


def brute_force_optimum(times: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """Exhaustive minimum makespan over all job orders (small n only)."""
    n = len(times)
    best = None
    best_perm = None
    for perm in itertools.permutations(range(1, n + 1)):
        value = dp_makespan(times, list(perm))
        if best is None or value < best:
            best = value
            best_perm = perm
    return best, best_perm


def neh_reference(times: list[list[int]], priority: list[int]) -> tuple[list[int], int]:
    """Second insertion-heuristic implementation (ties keep the latest position)."""
    seq: list[int] = []
    for job in priority:
        candidates = [
            (dp_makespan(times, seq[:pos] + [job] + seq[pos:]), -pos)
            for pos in range(len(seq) + 1)
        ]
        _, neg_pos = min(candidates)
        seq.insert(-neg_pos, job)
    return seq, dp_makespan(times, seq)


def fit_scale_shift_numeric(q: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """Minimize ||Q - t*P - b*E||_F over t >= 0 numerically: dense grid over
    (t, b) followed by local refinement from the best grid point."""
    q = np.asarray(q, dtype=float).ravel()
    p = np.asarray(p, dtype=float).ravel()

    def loss(v):
        t, b = v
        return np.linalg.norm(q - max(t, 0.0) * p - b)

    scale = (np.abs(q).max() + 1.0) / (np.abs(p).max() + 1.0)
    ts = np.linspace(0.0, 4.0 * scale + 1.0, 120)
    bs = np.linspace(q.min() - p.max() * ts.max(), q.max() + 1.0, 120)
    # residual tensor over the whole grid at once
    resid = q[None, None, :] - ts[:, None, None] * p[None, None, :] - bs[None, :, None]
    norms = np.linalg.norm(resid, axis=2)
    ti, bi = np.unravel_index(np.argmin(norms), norms.shape)
    res = minimize(loss, x0=[ts[ti], bs[bi]], method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 5000})
    t, b = res.x
    t = max(t, 0.0)
    # re-solve b exactly for the clamped t (b is unconstrained least squares)
    b = float((q - t * p).mean())
    return float(t), b


TAILLARD_MOD = 2147483647


def schrage_next(state: int) -> int:
    """One step of the minimal-standard generator in Schrage's overflow-free form."""
    a, b, c = 16807, 127773, 2836
    k = state // b
    state = a * (state % b) - k * c
    if state < 0:
        state += TAILLARD_MOD
    return state


def taillard_reference(n: int, m: int, seed: int) -> list[list[int]]:
    """Machine-major uniform [1, 99] draws, job-major result."""
    state = seed
    p = [[0] * m for _ in range(n)]
    for j in range(m):
        for i in range(n):
            state = schrage_next(state)
            p[i][j] = 1 + int(state / TAILLARD_MOD * 99)
    return p


def sbx_reference(xa: tuple, xb: tuple, rng, eta: float) -> tuple[tuple, tuple]:
    """Simulated binary crossover, one ``rng.random()`` per gene, clamped with
    ``min``/``max``."""
    c1, c2 = [], []
    for a, b in zip(xa, xb):
        u = rng.random()
        if u <= 0.5:
            beta = (2.0 * u) ** (1.0 / (eta + 1.0))
        else:
            beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0))
        v1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
        v2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
        c1.append(min(1.0, max(0.0, v1)))
        c2.append(min(1.0, max(0.0, v2)))
    return tuple(c1), tuple(c2)


def gauss_mutate_reference(x: tuple, rng, sigma: float) -> tuple:
    """Each key plus ``rng.gauss(0.0, sigma)``, clamped with ``min``/``max``."""
    return tuple(min(1.0, max(0.0, v + rng.gauss(0.0, sigma))) for v in x)
