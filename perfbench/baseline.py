"""Per-call baseline: one makespan evaluation, ``neh`` and ``patch("ri")``.

    python3 perfbench/baseline.py [--seconds 2]

Times each call at 20x5, 50x10, 100x20 and 200x20 with the benchmark's own
round loop (whole rounds until ``--seconds`` pass, at least three) and prints
a markdown table of medians. ``neh`` inserts jobs in descending row-sum
order; ``patch("ri")`` grows the lsp-20 critical jobs into a full schedule.
"""

from __future__ import annotations

import argparse
import statistics
import time

from common import import_flowmt, repeat_for

SIZES = [(20, 5, 873654221), (50, 10, 1958948863), (100, 20, 1539989115), (200, 20, 471503978)]
EVALS_PER_ROUND = 200


def median_seconds(fn, seconds: float) -> float:
    def one_round(_index):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    return statistics.median(repeat_for(one_round, seconds, min_rounds=3))


def _fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.0f} ms"
    return f"{seconds:.2f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    fm = import_flowmt()
    print("| size | one makespan eval | `neh` | `patch(\"ri\")`, lsp-20 |")
    print("|------|-------------------|-------|-----------------------|")
    for n, m, seed in SIZES:
        matrix = fm.generate_taillard(n, m, seed).matrix
        perm = list(range(1, n + 1))
        rows = matrix.p.tolist()
        priority = sorted(perm, key=lambda job: (-sum(rows[job - 1]), job))
        eat = fm.build_eat(matrix, "lsp", 20)
        evaluate = median_seconds(
            lambda: [fm.makespan(matrix, perm) for _ in range(EVALS_PER_ROUND)], args.seconds
        ) / EVALS_PER_ROUND
        neh = median_seconds(lambda: fm.neh(matrix, priority), args.seconds)
        patch = median_seconds(
            lambda: fm.patch("ri", list(eat.selected), list(eat.remaining), matrix), args.seconds
        )
        print(f"| {n}x{m} | {_fmt(evaluate)} | {_fmt(neh)} | {_fmt(patch)} |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
