import itertools
from random import Random

import numpy as np
import pytest

from flowmt.auxiliary import build_eat
from flowmt.distance import cos_theta_lower_bound, itdm, zero_pad
from flowmt.errors import JobIndexError, ParameterError, ShapeError
from flowmt.instance import ProblemMatrix, makespan

from conftest import random_matrix
from oracles import fit_scale_shift_numeric


class TestOptimalScaleShift:
    """The t* and b* that itdm fits: the best (t, b) with t >= 0 minimizing
    ||Q - t*P - b*E||_F."""

    def test_self_fit(self):
        rng = Random(11)
        p = random_matrix(rng, 5, 3).p.astype(float)
        res = itdm(p, p)
        assert abs(res.t_star - 1.0) < 1e-9
        assert abs(res.b_star) < 1e-9

    def test_exact_scale_shift_member(self):
        rng = Random(12)
        p = random_matrix(rng, 5, 3).p.astype(float)
        res = itdm(3.0 * p + 2.0, p)
        assert abs(res.t_star - 3.0) < 1e-9
        assert abs(res.b_star - 2.0) < 1e-9

    def test_matches_numeric_minimizer(self):
        # unrelated pairs often have cos <= 0, where the fit clamps t at 0
        rng = Random(13)
        clamped = 0
        for _ in range(12):
            q = random_matrix(rng, 6, 4).p.astype(float)
            p = random_matrix(rng, 6, 4).p.astype(float)
            res = itdm(q, p)
            t_ref, b_ref = fit_scale_shift_numeric(q, p)
            assert abs(res.t_star - t_ref) < 1e-4
            assert abs(res.b_star - b_ref) < 1e-4
            clamped += res.cos_theta <= 0.0
        assert 0 < clamped < 12  # both branches of the fit are checked

    def test_constant_reference_rejected(self, fig2_matrix):
        # a constant reference has no direction to scale: the fit rejects any
        # scale (t* = 0) and keeps only the best shift, Q's mean
        res = itdm(np.full((2, 2), 3.0), np.full((2, 2), 5.0))
        assert (res.d, res.t_star, res.b_star) == (1.0, 0.0, 3.0)
        res = itdm(fig2_matrix, ProblemMatrix(np.full((10, 5), 9)))
        assert res.d == 1.0
        assert res.t_star == 0.0
        assert res.b_star == float(fig2_matrix.p.mean())


class TestItdm:
    def test_self_distance_zero(self, fig2_matrix):
        res = itdm(fig2_matrix, fig2_matrix)
        assert res.d == 0.0
        assert abs(res.cos_theta - 1.0) < 1e-12

    def test_scale_shift_family_distance_zero(self, fig2_matrix):
        q = ProblemMatrix(2 * fig2_matrix.p + 3)
        res = itdm(q, fig2_matrix)
        assert res.d < 1e-9
        assert abs(res.t_star - 2.0) < 1e-9
        assert abs(res.b_star - 3.0) < 1e-9

    def test_anticorrelated_hits_one(self, fig2_matrix):
        c = int(fig2_matrix.p.max()) + 1
        q = ProblemMatrix(c - fig2_matrix.p)
        res = itdm(q, fig2_matrix)
        assert res.d == 1.0
        assert res.t_star == 0.0
        assert abs(res.cos_theta + 1.0) < 1e-12

    def test_constant_matrix_distance_one(self, fig2_matrix):
        res = itdm(ProblemMatrix(np.full((10, 5), 9)), fig2_matrix)
        assert res.d == 1.0
        assert res.t_star == 0.0

    def test_raw_formulation_agreement(self):
        # recompute d from the residual-based definition through sin/cos
        rng = Random(14)
        checked = 0
        for _ in range(40):
            q = random_matrix(rng, 8, 5).p.astype(float)
            base = random_matrix(rng, 8, 5).p.astype(float)
            p = base + 0.5 * q  # correlate so the angle stays acute
            res = itdm(q, p)
            qc = q - q.mean()
            pc = p - p.mean()
            t_num = float((qc * pc).sum() / (pc * pc).sum())
            if t_num <= 0:
                assert res.d == 1.0
                continue
            resid = np.linalg.norm(qc - t_num * pc)
            sin_t = resid / np.linalg.norm(qc)
            cos_t = t_num * np.linalg.norm(pc) / np.linalg.norm(qc)
            assert abs(res.d - (1.0 - cos_t) / sin_t) < 1e-9
            checked += 1
        assert checked >= 30

    def test_distance_always_in_unit_interval(self):
        rng = Random(15)
        for _ in range(50):
            q = random_matrix(rng, 6, 3)
            p = random_matrix(rng, 6, 3)
            res = itdm(q, p)
            assert 0.0 <= res.d <= 1.0
            assert (res.d == 1.0) == (res.t_star == 0.0)

    def test_monotone_in_cosine(self, fig2_matrix):
        rng = Random(16)
        points = []
        for _ in range(25):
            q = random_matrix(rng, 10, 5)
            res = itdm(q, fig2_matrix)
            if 0.0 < res.cos_theta < 1.0:
                points.append((res.cos_theta, res.d))
        points.sort()
        assert len(points) >= 5
        for (_, d1), (_, d2) in itertools.pairwise(points):
            assert d2 <= d1 + 1e-12

    def test_shape_mismatch(self, fig2_matrix):
        with pytest.raises(ShapeError):
            itdm(np.ones((3, 3)), fig2_matrix)


class TestZeroPad:
    def test_full_selection_returns_original(self, fig2_matrix):
        eat = build_eat(fig2_matrix, "lsp", 90)
        padded = zero_pad(fig2_matrix, eat.selected)
        for job in eat.selected:
            assert (padded.p[job - 1] == fig2_matrix.p[job - 1]).all()

    def test_unselected_rows_zero(self, fig2_matrix):
        eat = build_eat(fig2_matrix, "lsp", 40)
        padded = zero_pad(fig2_matrix, eat.selected)
        for job in range(1, 11):
            if job in eat.selected:
                assert (padded.p[job - 1] == fig2_matrix.p[job - 1]).all()
            else:
                assert (padded.p[job - 1] == 0).all()

    def test_padding_preserves_makespan(self, fig2_matrix):
        eat = build_eat(fig2_matrix, "lsp", 40)
        padded = zero_pad(fig2_matrix, eat.selected)
        rng = Random(17)
        jobs = list(eat.selected)
        sub_index = {job: i + 1 for i, job in enumerate(eat.selected)}
        for _ in range(10):
            rng.shuffle(jobs)
            sub_perm = [sub_index[job] for job in jobs]
            assert makespan(padded, jobs) == makespan(eat.submatrix, sub_perm)
            # padding zeros anywhere in a full permutation changes nothing
            full = jobs + [j for j in range(1, 11) if j not in eat.selected]
            assert makespan(padded, full) == makespan(eat.submatrix, sub_perm)

    def test_out_of_range_selection(self, fig2_matrix):
        with pytest.raises(JobIndexError):
            zero_pad(fig2_matrix, [4, 11])

    def test_keeps_times_above_float_precision(self):
        # 2^53 + 1 has no float64; ProblemMatrix accepts times up to 2^63 / size
        big = 2**53 + 1
        padded = zero_pad(ProblemMatrix(np.array([[big, 1], [2, 3]])), [1])
        assert padded.p.tolist() == [[big, 1], [0, 0]]


class TestCosThetaLowerBound:
    def test_full_set_collapses_to_zero(self, fig2_matrix):
        bound = cos_theta_lower_bound(fig2_matrix, range(1, 11))
        assert abs(bound) < 1e-12

    def test_fig2_value(self, fig2_matrix):
        bound = cos_theta_lower_bound(fig2_matrix, {4, 5, 7, 9})
        expected = (5.0 / 98.0) * (10.0 * 101833.0 / 200378.0 - 4.0)
        assert abs(bound - expected) < 1e-12
        assert abs(bound - 0.0552) < 5e-4

    def test_soundness_on_random_instances(self):
        rng = Random(18)
        for _ in range(100):
            mat = random_matrix(rng, 20, 5)
            eat = build_eat(mat, "lsp", rng.choice(range(10, 100, 10)))
            res = itdm(zero_pad(mat, eat.selected), mat)
            bound = cos_theta_lower_bound(mat, eat.selected)
            assert res.cos_theta >= bound - 1e-12

    def test_lsp_set_maximizes_bound(self):
        rng = Random(19)
        for _ in range(10):
            mat = random_matrix(rng, 8, 4)
            p_sq = (mat.p.astype(float) ** 2).sum()
            g = 3
            best = max(
                sum(float((mat.p[j - 1].astype(float) ** 2).sum()) for j in subset)
                for subset in itertools.combinations(range(1, 9), g)
            )
            eat = build_eat(mat, "lsp", 40)  # g = floor(8*40/100) = 3
            assert eat.g == g
            q_sq = float((eat.submatrix.p.astype(float) ** 2).sum())
            assert abs(q_sq - best) < 1e-9

    def test_empty_set_rejected(self, fig2_matrix):
        with pytest.raises(ParameterError):
            cos_theta_lower_bound(fig2_matrix, set())

    def test_degenerate_instance_rejected(self):
        with pytest.raises(ParameterError):
            cos_theta_lower_bound(ProblemMatrix([[5]]), {1})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda p: itdm([1.0, 2.0, 3.0], p), ShapeError,
         "expected a 2-D matrix, got shape (3,)"),
        (lambda p: cos_theta_lower_bound(p, [2, 11]), JobIndexError,
         "critical job 11 outside 1..10"),
        (lambda p: cos_theta_lower_bound(ProblemMatrix(np.zeros((4, 2), dtype=np.int64)), [1]),
         ParameterError, "bound undefined for an instance whose times are all 0"),
        (lambda p: itdm([[1, np.nan], [2, 3]], [[1, 2], [3, 4]]), ParameterError,
         "entry nan at row 1, column 2 is not finite"),
        (lambda p: itdm([[1, 2], [3, 4]], [[1, 2], [np.inf, -np.inf]]), ParameterError,
         "entry inf at row 2, column 1 is not finite"),
        (lambda p: cos_theta_lower_bound([[1, np.nan], [2, 3]], [1]), ParameterError,
         "entry nan at row 1, column 2 is not finite"),
        (lambda p: cos_theta_lower_bound([[1, 2], [-np.inf, 3]], [1]), ParameterError,
         "entry -inf at row 2, column 1 is not finite"),
    ],
    ids=["itdm-1-d", "critical-job-out-of-range", "all-zero-bound", "itdm-nan-task",
         "itdm-inf-reference", "bound-nan", "bound-minus-inf"],
)
def test_bad_input_rejected(fig2_matrix, call, error, message):
    with pytest.raises(error) as err:
        call(fig2_matrix)
    assert str(err.value) == message
