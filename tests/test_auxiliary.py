import itertools
import math
from random import Random

import numpy as np
import pytest

from flowmt.auxiliary import MEASURES, build_eat, critical_count, importance_scores
from flowmt.distance import itdm, zero_pad
from flowmt.errors import ParameterError
from flowmt.instance import ProblemMatrix, makespan
from flowmt.search import neh

from conftest import FIG2_LSP, FIG2_RANKING, random_matrix


class TestValueMeasures:
    def test_fig2_lsp_scores(self, fig2_matrix):
        scores, _ = importance_scores(fig2_matrix, "lsp")
        for job, expected in FIG2_LSP.items():
            assert scores[job - 1] == expected

    def test_fig2_lsp_ranking(self, fig2_matrix):
        _, ranking = importance_scores(fig2_matrix, "lsp")
        assert ranking == FIG2_RANKING
        assert ranking[:4] == [4, 9, 5, 7]

    def test_fig2_lst_row_one(self, fig2_matrix):
        scores, _ = importance_scores(fig2_matrix, "lst")
        assert scores[0] == 54 + 79 + 16 + 66 + 58  # hand sum of row 1

    def test_constant_matrix_tiebreak(self):
        mat = ProblemMatrix(np.full((6, 3), 5))
        scores, ranking = importance_scores(mat, "lst")
        assert len(set(scores)) == 1
        assert ranking == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize(
        "measure,rows",
        [
            ("lsp", [[2**27 + 1, 0], [2**27 + 1, 1]]),
            ("lst", [[2**53, 0], [2**53, 1]]),
            ("kk1", [[2**55, 0, 0], [2**55, 0, 1]]),  # scores 2^55 and 2^55 + 3
        ],
    )
    def test_sums_past_float_precision_rank_exactly(self, measure, rows):
        # each pair of sums rounds to one float64, which would tie them and
        # put job 1 first; the second job's sum is the larger
        scores, ranking = importance_scores(ProblemMatrix(rows), measure)
        assert ranking == [2, 1]
        assert all(type(score) is float for score in scores)

    def test_kk1_hand_computed(self):
        # m=3: base = (2)(1)/2 = 1; a-weights [3, 2, 1], b-weights [1, 2, 3]
        mat = ProblemMatrix([[1, 2, 3], [3, 2, 1]])
        scores, _ = importance_scores(mat, "kk1")
        assert scores[0] == min(3 * 1 + 2 * 2 + 1 * 3, 1 * 1 + 2 * 2 + 3 * 3)
        assert scores[1] == min(3 * 3 + 2 * 2 + 1 * 1, 1 * 3 + 2 * 2 + 3 * 1)

    def test_kk1_single_machine_all_zero(self):
        scores, ranking = importance_scores(ProblemMatrix([[9], [5], [7]]), "kk1")
        assert scores == [0.0, 0.0, 0.0]
        assert ranking == [1, 2, 3]

    def test_kk2_hand_computed_even_m(self):
        # m=4: half=2, weights (j-0.75)/1.25 for j=1,2; pairs (col2-col3), (col1-col4)
        mat = ProblemMatrix([[8, 6, 2, 4]])
        w1, w2 = (1 - 0.75) / (2 - 0.75), (2 - 0.75) / (2 - 0.75)
        u = w1 * (6 - 2) + w2 * (8 - 4)
        t = 20
        scores, _ = importance_scores(mat, "kk2")
        assert math.isclose(scores[0], min(t + u, t - u))

    def test_kk2_hand_computed_odd_m(self):
        # m=5: half=2, middle column unused; pairs (col2-col4), (col1-col5)
        mat = ProblemMatrix([[10, 20, 30, 40, 50]])
        w1, w2 = (1 - 0.75) / (2 - 0.75), (2 - 0.75) / (2 - 0.75)
        u = w1 * (20 - 40) + w2 * (10 - 50)
        scores, _ = importance_scores(mat, "kk2")
        assert math.isclose(scores[0], min(150 + u, 150 - u))

    def test_kk2_single_machine_is_row_sum(self):
        scores, _ = importance_scores(ProblemMatrix([[9], [5]]), "kk2")
        assert scores == [9.0, 5.0]


class TestSequenceMeasures:
    def test_sr0_ranking_is_neh_permutation(self, fig2_matrix):
        _, lst_ranking = importance_scores(fig2_matrix, "lst")
        expected = neh(fig2_matrix, lst_ranking)
        positions, ranking = importance_scores(fig2_matrix, "sr0")
        assert ranking == expected
        for pos, job in enumerate(expected, start=1):
            assert positions[job - 1] == pos

    @pytest.mark.parametrize("measure,base", [("sr1", "kk1"), ("sr2", "kk2")])
    def test_sr_variants_follow_their_priorities(self, fig2_matrix, measure, base):
        _, priority = importance_scores(fig2_matrix, base)
        expected = neh(fig2_matrix, priority)
        _, ranking = importance_scores(fig2_matrix, measure)
        assert ranking == expected

    def test_rnd_is_seeded_shuffle(self, fig2_matrix):
        _, r1 = importance_scores(fig2_matrix, "rnd", Random(42))
        _, r2 = importance_scores(fig2_matrix, "rnd", Random(42))
        _, r3 = importance_scores(fig2_matrix, "rnd", Random(43))
        assert r1 == r2
        assert sorted(r1) == list(range(1, 11))
        assert r1 != r3  # different seed, different order (true for these seeds)

    def test_rnd_consumes_exactly_one_shuffle(self, fig2_matrix):
        rng = Random(42)
        importance_scores(fig2_matrix, "rnd", rng)
        probe = Random(42)
        probe.shuffle(list(range(1, 11)))
        assert rng.random() == probe.random()

    def test_rnd_requires_rng(self, fig2_matrix):
        with pytest.raises(ParameterError):
            importance_scores(fig2_matrix, "rnd")


class TestBuildEat:
    def test_fig2_k40(self, fig2_matrix):
        eat = build_eat(fig2_matrix, "lsp", 40)
        assert set(eat.selected) == {4, 5, 7, 9}
        assert eat.g == 4
        assert eat.selected == (4, 9, 5, 7)
        for row, job in zip(eat.submatrix.rows(), eat.selected):
            assert row == fig2_matrix.rows()[job - 1]

    def test_k10_selects_single_top_job(self, fig2_matrix):
        eat = build_eat(fig2_matrix, "lsp", 10)
        assert eat.g == 1
        assert eat.selected == (4,)

    def test_floor_arithmetic(self):
        rng = Random(3)
        mat = random_matrix(rng, 17, 3)
        eat = build_eat(mat, "lst", 30)
        assert eat.g == (17 * 30) // 100 == 5

    def test_lsp_submatrix_energy_is_subset_maximum(self):
        rng = Random(4)
        mat = random_matrix(rng, 20, 5)
        eat = build_eat(mat, "lsp", 30)
        assert eat.g == 6
        scores, _ = importance_scores(mat, "lsp")
        best = max(
            sum(scores[j - 1] for j in subset)
            for subset in itertools.combinations(range(1, 21), 6)
        )
        q_sq = float((eat.submatrix.p.astype(float) ** 2).sum())
        assert abs(q_sq - best) < 1e-6

    def test_invalid_ratios_rejected(self, fig2_matrix):
        with pytest.raises(ParameterError):
            build_eat(fig2_matrix, "lsp", 5)
        with pytest.raises(ParameterError):
            build_eat(fig2_matrix, "lsp", 95)

    def test_too_small_selection_rejected(self):
        mat = ProblemMatrix([[1, 2], [3, 4], [5, 6]])
        with pytest.raises(ParameterError):
            build_eat(mat, "lsp", 10)  # floor(3 * 0.1) = 0

    def test_deterministic_given_seed(self, fig2_matrix):
        a = build_eat(fig2_matrix, "rnd", 40, rng=Random(9))
        b = build_eat(fig2_matrix, "rnd", 40, rng=Random(9))
        assert a.ranking == b.ranking
        assert a.selected == b.selected

    def test_submatrix_matches_padded_makespan(self, fig2_matrix):
        rng = Random(10)
        for measure in ("lsp", "lst", "kk1"):
            eat = build_eat(fig2_matrix, measure, 40)
            padded = zero_pad(fig2_matrix, eat.selected)
            jobs = list(eat.selected)
            rng.shuffle(jobs)
            sub_index = {job: i + 1 for i, job in enumerate(eat.selected)}
            assert makespan(eat.submatrix, [sub_index[j] for j in jobs]) == makespan(padded, jobs)

    def test_distances_within_unit_interval_and_lsp_competitive(self):
        rng = Random(11)
        per_measure: dict = {}
        for idx in range(10):
            mat = random_matrix(rng, 20, 5)
            for measure in MEASURES:
                eat = build_eat(mat, measure, 30, rng=Random(1000 + idx))
                res = itdm(zero_pad(mat, eat.selected), mat)
                assert 0.0 <= res.d <= 1.0
                per_measure.setdefault(measure, []).append(res.d)
        lsp_mean = sum(per_measure["lsp"]) / 10
        for measure, values in per_measure.items():
            assert lsp_mean <= sum(values) / 10 + 1e-12


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: critical_count(5, 100), "ratio 100% keeps all 5 jobs; nothing saved"),
    ],
    ids=["keeps-every-job"],
)
def test_bad_selection_rejected(fig2_matrix, call, message):
    with pytest.raises(ParameterError) as err:
        call(fig2_matrix)
    assert str(err.value) == message
