from array import array
from random import Random

import numpy as np
import pytest

from flowmt.errors import InvalidPermutationError, ParameterError
from flowmt.instance import ProblemMatrix, makespan
from flowmt.search import _draw_walk, _insert_best, _walk_minima, neh, solve_eat

from conftest import random_matrix
from oracles import brute_force_optimum, dp_makespan, neh_reference


def lst_priority(matrix):
    sums = [(sum(row), job) for job, row in enumerate(matrix.rows(), start=1)]
    return [job for _, job in sorted(sums, key=lambda t: (-t[0], t[1]))]


def tie_heavy_matrix(rng):
    # few jobs, few machines and times 0..3, so many slots tie
    return random_matrix(rng, rng.randint(1, 9), rng.randint(1, 4), low=0, high=3)


def brute_force_insertion(times, seq, jobs, latest_ties):
    seq = list(seq)
    for job in jobs:
        values = [dp_makespan(times, seq[:pos] + [job] + seq[pos:]) for pos in range(len(seq) + 1)]
        best = min(values)
        slots = [pos for pos, value in enumerate(values) if value == best]
        seq.insert(slots[-1] if latest_ties else slots[0], job)
    return seq


class TestInsertBest:
    @pytest.mark.parametrize("latest_ties", [True, False])
    def test_matches_brute_force_best_slot(self, latest_ties):
        rng = Random(29)
        for _ in range(300):
            mat = tie_heavy_matrix(rng)
            perm = rng.sample(range(1, mat.n + 1), mat.n)
            cut = rng.randint(0, mat.n)
            expected = brute_force_insertion(mat.rows(), perm[:cut], perm[cut:], latest_ties)
            assert _insert_best(mat, perm[:cut], perm[cut:], latest_ties) == expected


class TestNeh:
    def test_single_job(self):
        assert neh(ProblemMatrix([[5, 2]]), [1]) == [1]

    def test_single_machine_keeps_priority_order(self):
        rng = Random(21)
        mat = random_matrix(rng, 6, 1)
        priority = rng.sample(range(1, 7), 6)
        # every insertion position yields the same column sum, so the
        # latest-position rule keeps the priority order itself
        assert neh(mat, priority) == priority

    def test_matches_reference_on_fig2(self, fig2_matrix):
        priority = lst_priority(fig2_matrix)
        seq = neh(fig2_matrix, priority)
        ref_seq, ref_val = neh_reference(fig2_matrix.rows(), priority)
        assert seq == ref_seq
        assert makespan(fig2_matrix, seq) == ref_val == 873  # frozen from the oracle

    def test_matches_reference_on_random_instances(self):
        rng = Random(22)
        for _ in range(20):
            mat = random_matrix(rng, rng.randint(2, 9), rng.randint(1, 5))
            priority = lst_priority(mat)
            assert neh(mat, priority) == neh_reference(mat.rows(), priority)[0]

    def test_matches_reference_on_tie_heavy_instances(self):
        rng = Random(30)
        for _ in range(200):
            mat = tie_heavy_matrix(rng)
            priority = rng.sample(range(1, mat.n + 1), mat.n)
            assert neh(mat, priority) == neh_reference(mat.rows(), priority)[0]

    def test_invalid_priority_rejected(self, fig2_matrix):
        with pytest.raises(InvalidPermutationError):
            neh(fig2_matrix, [1, 2, 3])


def best_of_walk(matrix, perm, iterations, rng):
    """Draw one INSERT walk and score it as the engine does: its first best
    sequence and that sequence's makespan."""
    seqs, values = _walk_minima(matrix.p, _draw_walk(perm, iterations, rng), 1, len(perm))
    return seqs[0], values[0]


def walk(matrix, perm, iterations, rng):
    """Run the INSERT walk and check the makespan it returns against the oracle."""
    seq, value = best_of_walk(matrix, perm, iterations, rng)
    assert type(value) is int
    assert value == dp_makespan(matrix.rows(), seq)
    return seq


def replay_best(times, perm, iterations, rng):
    """Replay a walk move by move and keep its first strict improvement."""
    cur = list(perm)
    best, best_val = list(cur), dp_makespan(times, cur)
    if len(cur) >= 2:
        for _ in range(iterations):
            i, j = sorted(rng.sample(range(len(cur)), 2))
            cur.insert(i, cur.pop(j))
            if dp_makespan(times, cur) < best_val:
                best, best_val = list(cur), dp_makespan(times, cur)
    return best, best_val


class TestInsertLocalSearch:
    def test_zero_budget_returns_input(self, fig2_matrix):
        perm = list(range(1, 11))
        out = walk(fig2_matrix, perm, 0, Random(1))
        assert out == perm

    def test_one_job_draws_nothing_and_returns_its_row_sum(self, fig2_matrix):
        rng, twin = Random(3), Random(3)
        out, value = best_of_walk(fig2_matrix, [7], 50, rng)
        assert out == [7]
        assert value == sum(fig2_matrix.rows()[6]) == dp_makespan(fig2_matrix.rows(), [7])
        assert rng.getstate() == twin.getstate()

    def test_two_jobs_finds_best_order(self):
        rng = Random(23)
        for _ in range(10):
            mat = random_matrix(rng, 2, 3)
            best = min(makespan(mat, [1, 2]), makespan(mat, [2, 1]))
            out = walk(mat, [1, 2], 5, rng)
            assert makespan(mat, out) == best

    def test_never_worse_than_input(self):
        rng = Random(24)
        mat = random_matrix(rng, 10, 5)
        for trial in range(50):
            perm = rng.sample(range(1, 11), 10)
            before = makespan(mat, perm)
            out = walk(mat, perm, 500, Random(trial))
            assert makespan(mat, out) <= before

    def test_deterministic_given_seed(self, fig2_matrix):
        perm = list(range(1, 11))
        a = walk(fig2_matrix, perm, 100, Random(5))
        b = walk(fig2_matrix, perm, 100, Random(5))
        assert a == b

    @pytest.mark.parametrize("iterations", [0, 1, 50])
    def test_draws_exactly_its_moves(self, fig2_matrix, iterations):
        perm = [3, 7, 1, 9, 10, 2, 5, 8, 4]
        rng, twin = Random(12), Random(12)
        walk(fig2_matrix, perm, iterations, rng)
        for _ in range(iterations):
            twin.sample(range(len(perm)), 2)
        assert rng.getstate() == twin.getstate()

    def test_first_of_tied_minima_wins(self):
        mat = ProblemMatrix(np.zeros((8, 3), dtype=np.int64))
        perm = [4, 2, 8, 6, 1, 3, 7, 5]
        assert walk(mat, perm, 40, Random(9)) == perm

    def test_returns_best_of_the_walk(self):
        rng = Random(31)
        for trial in range(30):
            mat = tie_heavy_matrix(rng)
            perm = rng.sample(range(1, mat.n + 1), mat.n)
            walk_rng, twin = Random(trial), Random(trial)
            out = walk(mat, perm, 20, walk_rng)
            assert out == replay_best(mat.rows(), perm, 20, twin)[0]

    def test_walks_scored_together_match_the_replay(self):
        # the engine packs every walk of a task into one batch: each walk's
        # result must not depend on its neighbours in the batch
        rng = Random(32)
        for trial in range(20):
            mat = tie_heavy_matrix(rng)
            starts = [rng.sample(range(1, mat.n + 1), mat.n) for _ in range(rng.randint(2, 6))]
            walk_rng, twin = Random(trial), Random(trial)
            rows = array("i")
            for perm in starts:
                rows.extend(_draw_walk(perm, 15, walk_rng))
            seqs, values = _walk_minima(mat.p, rows, len(starts), mat.n)
            expected = [replay_best(mat.rows(), perm, 15, twin) for perm in starts]
            assert seqs == [seq for seq, _ in expected]
            assert values == [value for _, value in expected]

    def test_partial_permutation_supported(self, fig2_matrix):
        partial = [5, 9, 4, 7]
        out = walk(fig2_matrix, partial, 100, Random(8))
        assert sorted(out) == sorted(partial)
        assert makespan(fig2_matrix, out) <= makespan(fig2_matrix, partial)


class TestSolveEat:
    def test_zero_iterations_returns_neh_seed(self):
        rng = Random(25)
        mat = random_matrix(rng, 6, 4)
        seed_perm = neh(mat, lst_priority(mat))
        assert solve_eat(mat, 0, Random(1)) == seed_perm

    def test_negative_budget_rejected(self, fig2_matrix):
        with pytest.raises(ParameterError):
            solve_eat(fig2_matrix, -1, Random(1))

    def test_never_worse_than_seed(self):
        rng = Random(26)
        for trial in range(10):
            mat = random_matrix(rng, 7, 4)
            seed_val = makespan(mat, neh(mat, lst_priority(mat)))
            out = solve_eat(mat, 2000, Random(trial))
            assert makespan(mat, out) <= seed_val

    def test_reaches_exhaustive_optimum_on_small_tasks(self):
        rng = Random(27)
        mat = random_matrix(rng, 6, 4)
        best, _ = brute_force_optimum(mat.rows())
        hits = 0
        for trial in range(50):
            out = solve_eat(mat, 10000, Random(trial))
            if makespan(mat, out) == best:
                hits += 1
        assert hits >= 45

    def test_deterministic_given_seed(self):
        rng = Random(28)
        mat = random_matrix(rng, 8, 3)
        a = solve_eat(mat, 3000, Random(11))
        b = solve_eat(mat, 3000, Random(11))
        assert a == b
