from random import Random

import pytest

from flowmt.auxiliary import build_eat
from flowmt.errors import ParameterError, PartitionError, ShapeError
from flowmt.instance import makespan
from flowmt.transfer import (
    default_key_values,
    patch,
    perm_to_vector,
    project_to_eat,
    rov_decode,
)

from conftest import random_matrix
from oracles import dp_makespan

WORKED_X = [0.61, 0.65, 0.01, 0.86, 0.97, 0.69, 0.99, 0.63, 0.78, 0.29]
WORKED_PI = [3, 5, 1, 8, 9, 6, 10, 4, 7, 2]


class TestRovDecode:
    def test_worked_example(self):
        assert rov_decode(WORKED_X) == WORKED_PI

    def test_ascending_keys_give_identity(self):
        assert rov_decode([0.1, 0.2, 0.3, 0.4]) == [1, 2, 3, 4]

    def test_all_equal_keys_give_identity(self):
        assert rov_decode([0.5] * 6 ) == [1, 2, 3, 4, 5, 6]

    def test_ties_prefer_lower_index(self):
        assert rov_decode([0.7, 0.2, 0.7]) == [2, 1, 3]

    def test_matches_value_then_index_ranking_on_clamped_keys(self):
        # SBX and mutation clamp many keys to exactly 0.0 or 1.0
        rng = Random(33)
        for _ in range(500):
            d = rng.randint(1, 120)
            x = tuple(rng.choice([0.0, 1.0, 0.0, 1.0, 0.5, rng.random()]) for _ in range(d))
            ranked = sorted((value, index) for index, value in enumerate(x))
            expected = [0] * d
            for rank, (_, index) in enumerate(ranked, start=1):
                expected[index] = rank
            assert rov_decode(x) == expected
            assert rov_decode(list(x)) == expected


class TestProjection:
    def test_worked_example(self):
        assert project_to_eat(WORKED_PI, {4, 5, 7, 9}) == [5, 9, 4, 7]

    def test_full_set_is_identity(self):
        assert project_to_eat(WORKED_PI, set(range(1, 11))) == WORKED_PI

    def test_empty_set(self):
        assert project_to_eat(WORKED_PI, set()) == []


class TestPermToVector:
    def test_worked_improvement_example(self):
        target = [1, 3, 5, 8, 9, 6, 10, 4, 7, 2]
        expected = [0.01, 0.61, 0.65, 0.86, 0.97, 0.69, 0.99, 0.63, 0.78, 0.29]
        assert perm_to_vector(WORKED_X, target) == pytest.approx(expected)

    def test_fixed_point(self):
        assert perm_to_vector(WORKED_X, rov_decode(WORKED_X)) == pytest.approx(WORKED_X)

    def test_round_trip_many(self):
        rng = Random(41)
        for _ in range(1000):
            d = rng.randint(1, 12)
            values = [rng.random() for _ in range(d)]  # distinct w.p. 1
            target = rng.sample(range(1, d + 1), d)
            assert rov_decode(perm_to_vector(values, target)) == target

    def test_default_keys_decode_to_target(self):
        rng = Random(42)
        for _ in range(50):
            d = rng.randint(1, 15)
            target = rng.sample(range(1, d + 1), d)
            keys = default_key_values(d)
            assert all(0.0 < k < 1.0 for k in keys)
            assert rov_decode(perm_to_vector(keys, target)) == target

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            perm_to_vector([0.1, 0.2], [1, 2, 3])


class TestPatch:
    def test_fig3_first_insertion(self, fig2_matrix):
        # step one must pick [5,9,4,2,7] among the five candidates
        skeleton = [5, 9, 4, 7]
        candidates = {
            tuple(skeleton[:pos] + [2] + skeleton[pos:]): makespan(
                fig2_matrix, skeleton[:pos] + [2] + skeleton[pos:]
            )
            for pos in range(5)
        }
        winner = min(candidates, key=lambda seq: candidates[seq])
        assert winner == (5, 9, 4, 2, 7)
        # later insertions never reorder placed jobs, so the full patch must
        # keep the step-one sequence as its projection
        out = patch("ri", skeleton, [2, 8, 10, 6, 1, 3], fig2_matrix)
        assert project_to_eat(out, {5, 9, 4, 7, 2}) == [5, 9, 4, 2, 7]

    def test_empty_remainder_returns_skeleton(self, fig2_matrix):
        full = list(range(1, 11))
        assert patch("ei", full, [], fig2_matrix) == full

    def test_ei_appends(self):
        rng = Random(43)
        mat = random_matrix(rng, 3, 2)
        assert patch("ei", [2, 1], [3], mat) == [2, 1, 3]

    def test_oi_alternates_by_parity(self):
        rng = Random(44)
        mat = random_matrix(rng, 6, 2)
        # length 2 (even) -> front, 3 (odd) -> end, 4 -> front, 5 -> end
        out = patch("oi", [2, 1], [3, 4, 5, 6], mat)
        assert out == [5, 3, 2, 1, 4, 6]

    def test_ai_uses_rng_and_preserves_skeleton(self, fig2_matrix):
        rng = Random(45)
        eat = build_eat(fig2_matrix, "lsp", 40)
        pi_eat = [5, 9, 4, 7]
        out = patch("ai", pi_eat, list(eat.remaining), fig2_matrix, rng)
        assert sorted(out) == list(range(1, 11))
        assert project_to_eat(out, eat.selected) == pi_eat

    def test_ai_requires_rng(self, fig2_matrix):
        with pytest.raises(ParameterError):
            patch("ai", [5, 9, 4, 7], [2, 8, 10, 6, 1, 3], fig2_matrix)

    def test_ri_each_step_matches_exhaustive_choice(self):
        rng = Random(46)
        mat = random_matrix(rng, 7, 3)
        pi_eat = [3, 6, 1]
        remaining = [7, 2, 5, 4]
        seq = list(pi_eat)
        for job in remaining:
            best = min(
                (dp_makespan(mat.rows(), seq[:pos] + [job] + seq[pos:]), pos)
                for pos in range(len(seq) + 1)
            )
            seq.insert(best[1], job)
        assert patch("ri", pi_eat, remaining, mat) == seq

    @pytest.mark.parametrize("strategy", ["ri", "ei", "oi", "ai"])
    def test_skeleton_preserved(self, fig2_matrix, strategy):
        eat = build_eat(fig2_matrix, "lsp", 40)
        pi_eat = [9, 4, 7, 5]
        out = patch(strategy, pi_eat, list(eat.remaining), fig2_matrix, Random(47))
        assert project_to_eat(out, eat.selected) == pi_eat
        assert sorted(out) == list(range(1, 11))

    def test_overlap_rejected(self, fig2_matrix):
        with pytest.raises(PartitionError):
            patch("ri", [5, 9], [9, 1, 2, 3, 4, 6, 7, 8, 10], fig2_matrix)

    def test_incomplete_cover_rejected(self, fig2_matrix):
        with pytest.raises(PartitionError):
            patch("ri", [5, 9], [1, 2], fig2_matrix)

    @pytest.mark.parametrize(
        "pi_eat, remaining",
        [([1, 1], list(range(2, 11))), ([1, 2], [3, 4, 5, 6, 7, 8, 9, 10, 10])],
    )
    def test_repeated_job_rejected(self, fig2_matrix, pi_eat, remaining):
        with pytest.raises(PartitionError):
            patch("ri", pi_eat, remaining, fig2_matrix)

    def test_unknown_strategy_rejected(self, fig2_matrix):
        with pytest.raises(ParameterError):
            patch("xx", [1], list(range(2, 11)), fig2_matrix)

    def test_ri_better_than_alternatives_on_average(self):
        # directional: greedy best-position patching beats the fixed policies
        rng = Random(48)
        totals = {"ri": 0, "ei": 0, "oi": 0, "ai": 0}
        for _ in range(15):
            mat = random_matrix(rng, 12, 5)
            eat = build_eat(mat, "lsp", 30)
            pi_eat = list(eat.selected)
            for strategy in totals:
                out = patch(strategy, pi_eat, list(eat.remaining), mat, Random(49))
                totals[strategy] += makespan(mat, out)
        assert totals["ri"] < totals["ei"]
        assert totals["ri"] < totals["oi"]
        assert totals["ri"] < totals["ai"]
