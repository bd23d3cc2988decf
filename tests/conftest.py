import sys
from pathlib import Path
from random import Random

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from flowmt.instance import Instance, ProblemMatrix

# The worked 10-job, 5-machine example used throughout the tests; its rows are
# drawn from the first classic 20x5 benchmark instance.
FIG2_TIMES = [
    [54, 79, 16, 66, 58],
    [83, 3, 89, 58, 56],
    [15, 11, 49, 31, 20],
    [71, 99, 15, 68, 85],
    [77, 56, 89, 78, 53],
    [36, 70, 45, 91, 35],
    [87, 56, 64, 85, 13],
    [76, 3, 7, 85, 86],
    [87, 86, 75, 77, 18],
    [68, 5, 77, 51, 68],
]

FIG2_LSP = {
    1: 17133, 2: 21319, 3: 4108, 4: 26916, 5: 25879,
    6: 17727, 7: 22195, 8: 20455, 9: 26843, 10: 17803,
}

FIG2_RANKING = [4, 9, 5, 7, 2, 8, 10, 6, 1, 3]

TA001_TIME_SEED = 873654221


@pytest.fixture
def fig2_matrix() -> ProblemMatrix:
    return ProblemMatrix(np.array(FIG2_TIMES))


@pytest.fixture
def fig2_instance(fig2_matrix) -> Instance:
    return Instance(fig2_matrix, name="fig2")


def random_matrix(rng: Random, n: int, m: int, low: int = 1, high: int = 99) -> ProblemMatrix:
    return ProblemMatrix(
        np.array([[rng.randint(low, high) for _ in range(m)] for _ in range(n)])
    )


def random_partial_perm(rng: Random, n: int) -> list[int]:
    size = rng.randint(1, n)
    return rng.sample(range(1, n + 1), size)


class StopOnCall:
    """A stop check that turns true on its ``k``-th call and counts its calls."""

    def __init__(self, k: int):
        self.k = k
        self.calls = 0

    def __call__(self) -> bool:
        self.calls += 1
        return self.calls >= self.k
