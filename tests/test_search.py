from random import Random

import pytest

from flowmt.errors import InvalidPermutationError, ParameterError
from flowmt.instance import ProblemMatrix, makespan
from flowmt.search import insert_local_search, neh, solve_eat

from conftest import random_matrix
from oracles import brute_force_optimum, neh_reference


def lst_priority(matrix):
    sums = [(sum(row), job) for job, row in enumerate(matrix.rows(), start=1)]
    return [job for _, job in sorted(sums, key=lambda t: (-t[0], t[1]))]


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

    def test_invalid_priority_rejected(self, fig2_matrix):
        with pytest.raises(InvalidPermutationError):
            neh(fig2_matrix, [1, 2, 3])


class TestInsertLocalSearch:
    def test_zero_budget_returns_input(self, fig2_matrix):
        perm = list(range(1, 11))
        out = insert_local_search(fig2_matrix, perm, 0, Random(1))
        assert out == perm

    def test_two_jobs_finds_best_order(self):
        rng = Random(23)
        for _ in range(10):
            mat = random_matrix(rng, 2, 3)
            best = min(makespan(mat, [1, 2]), makespan(mat, [2, 1]))
            out = insert_local_search(mat, [1, 2], 5, rng)
            assert makespan(mat, out) == best

    def test_never_worse_than_input(self):
        rng = Random(24)
        mat = random_matrix(rng, 10, 5)
        for trial in range(50):
            perm = rng.sample(range(1, 11), 10)
            before = makespan(mat, perm)
            out = insert_local_search(mat, perm, 500, Random(trial))
            assert makespan(mat, out) <= before

    def test_deterministic_given_seed(self, fig2_matrix):
        perm = list(range(1, 11))
        a = insert_local_search(fig2_matrix, perm, 100, Random(5))
        b = insert_local_search(fig2_matrix, perm, 100, Random(5))
        assert a == b

    def test_negative_budget_rejected(self, fig2_matrix):
        with pytest.raises(ParameterError):
            insert_local_search(fig2_matrix, list(range(1, 11)), -1, Random(1))

    def test_partial_permutation_supported(self, fig2_matrix):
        partial = [5, 9, 4, 7]
        out = insert_local_search(fig2_matrix, partial, 100, Random(8))
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
