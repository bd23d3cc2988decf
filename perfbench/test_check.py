"""Fast tests of the benchmark's output checker.

    python3 -m pytest -q perfbench/test_check.py

The checker must accept the library's real outputs and reject corrupted
ones: a duplicated job, a wrong makespan, a rising trace and a cosine below
its floor.
"""

from __future__ import annotations

import pytest

import check
from check import CheckError
from common import import_flowmt

TIMES = check.taillard_times(8, 4, 12345)


def _sweep_row(measure, ratio, **override):
    g = len(TIMES) * ratio // 100
    selected = check._ranking(TIMES, measure)[:g]
    cos = check.padded_cosine(TIMES, selected)
    row = {"measure": measure, "ratio": str(ratio),
           "d": repr(((1 - cos) / (1 + cos)) ** 0.5), "cos_theta": repr(cos),
           "bound": repr(check.cos_floor(TIMES, selected))}
    row.update({k: repr(v) for k, v in override.items()})
    return row


def test_generator_reproduces_first_classic_instance():
    ta001 = check.taillard_times(20, 5, 873654221)
    assert ta001[0] == [54, 79, 16, 66, 58]
    assert ta001[1] == [83, 3, 89, 58, 56]


def test_dp_makespan_hand_example():
    times = [[3, 2], [1, 4]]
    assert check.dp_makespan(times, [1, 2]) == 9
    assert check.dp_makespan(times, [2, 1]) == 7


def test_accepts_library_engine_run():
    fm = import_flowmt()
    inst = fm.generate_taillard(8, 4, 12345)
    config = fm.EngineConfig(population=10, ls_intensity=5, transfer_mode="ri",
                             max_generations=6, rng_seed=3)
    result = fm.Engine(fm.TaskPair(inst, fm.ImpTsk("lsp", 50)), config).run()
    check.check_engine_run(TIMES, result, 6, "run")


def test_accepts_library_sweep():
    fm = import_flowmt()
    inst = fm.generate_taillard(8, 4, 12345)
    measures, ratios = ["lsp", "lst", "sr0", "rnd"], [20, 50]
    rows = [
        {"measure": meas, "ratio": str(ratio), "d": repr(d), "cos_theta": repr(cos),
         "bound": repr(bound)}
        for _name, meas, ratio, d, cos, bound in fm.distance_sweep([inst], measures, ratios, seed=1)
    ]
    check.check_sweep_rows(rows, TIMES, measures, ratios)


def test_rejects_duplicated_job():
    perm = [1, 2, 3, 4, 5, 6, 7, 7]
    with pytest.raises(CheckError, match="appears twice"):
        check.check_schedule(TIMES, perm, check.dp_makespan(TIMES, perm), "run")


def test_rejects_wrong_makespan():
    perm = list(range(1, 9))
    with pytest.raises(CheckError, match="schedule gives"):
        check.check_schedule(TIMES, perm, check.dp_makespan(TIMES, perm) - 1, "run")


def test_rejects_rising_trace():
    with pytest.raises(CheckError, match="rises"):
        check.check_trace([(0, 500), (1, 490), (2, 495)], 2, 495, "run")


def test_accepts_falling_trace_and_rejects_wrong_end():
    check.check_trace([(0, 500), (1, 490), (2, 490)], 2, 490, "run")
    with pytest.raises(CheckError, match="ends at"):
        check.check_trace([(0, 500), (1, 490)], 1, 480, "run")


def test_rejects_cosine_below_floor():
    good = [_sweep_row("lsp", 50), _sweep_row("lst", 50)]
    check.check_sweep_rows(good, TIMES, ["lsp", "lst"], [50])
    floor = float(good[0]["bound"])
    bad = [_sweep_row("lsp", 50, cos_theta=floor - 0.01), good[1]]
    with pytest.raises(CheckError, match="below its floor"):
        check.check_sweep_rows(bad, TIMES, ["lsp", "lst"], [50])
