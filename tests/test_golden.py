"""The benchmark's golden digests of fixed-seed, generation-limited runs.

Each digest covers a run's best_perm, best makespan and whole trace, so a
refactor or speedup that changes any of them, or the order of rng draws,
fails here. The cases and digests live in ``perfbench/golden.py`` and
``perfbench/golden.json``.
"""

import sys
from pathlib import Path

import flowmt

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import golden  # noqa: E402


def test_golden_digests_match():
    statuses = golden.compare(flowmt)
    assert len(statuses) == len(golden.CASES)
    assert all(status == "match" for _, status in statuses), statuses
