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


# The golden cases stop at 50x10. This run pins the 100-job paths too: the
# pair draw above 21 positions, int32 kernel state on wide walk batches, and
# RI transfer at 100x20. Its digest was recorded with the int64 kernel and the
# one-pair-per-call walk draw that came before them.
RI_100X20_DIGEST = "68c09ea54be5a2adba923461b08e8686f4bf511113cb04834b0a813f45bae775"


def test_realkey_ri_100x20_digest_matches():
    inst = flowmt.generate_taillard(100, 20, 1539989115)
    config = flowmt.EngineConfig(
        encoding="realkey", transfer_mode="ri", max_generations=5, rng_seed=1
    )
    result = flowmt.Engine(flowmt.TaskPair(inst, flowmt.ImpTsk("lsp", 20)), config).run()
    assert result.best_makespan == 6655
    assert golden.digest(result) == RI_100X20_DIGEST
