from array import array
from random import Random

import numpy as np
import pytest

from flowmt.errors import (
    EmptyScheduleError,
    InvalidPermutationError,
    JobIndexError,
    ParameterError,
    ParseError,
)
from flowmt.instance import (
    Instance,
    ProblemMatrix,
    _makespans,
    generate_taillard,
    lower_bound,
    makespan,
    parse_instance,
    write_instance,
)

from conftest import FIG2_TIMES, TA001_TIME_SEED, random_matrix, random_partial_perm
from oracles import brute_force_optimum, dp_makespan, taillard_reference


class TestMakespan:
    def test_single_job_single_machine(self):
        assert makespan(ProblemMatrix([[7]]), [1]) == 7

    def test_single_machine_is_row_sum(self):
        assert makespan(ProblemMatrix([[3], [4]]), [2, 1]) == 7

    def test_fig2_identity_permutation(self, fig2_matrix):
        # frozen from the straight-line DP oracle
        assert makespan(fig2_matrix, list(range(1, 11))) == 1002
        assert dp_makespan(FIG2_TIMES, list(range(1, 11))) == 1002

    def test_agrees_with_dp_oracle_on_random_pairs(self):
        rng = Random(20240901)
        for _ in range(200):
            n = rng.randint(1, 8)
            m = rng.randint(1, 6)
            mat = random_matrix(rng, n, m)
            perm = random_partial_perm(rng, n)
            assert makespan(mat, perm) == dp_makespan(mat.rows(), perm)

    def test_relabeling_equivariance(self):
        rng = Random(7)
        for _ in range(30):
            n, m = rng.randint(2, 7), rng.randint(1, 5)
            mat = random_matrix(rng, n, m)
            perm = rng.sample(range(1, n + 1), n)
            relabel = rng.sample(range(1, n + 1), n)  # relabel[i-1] = new label of job i
            rows = [None] * n
            for old, row in enumerate(mat.rows(), start=1):
                rows[relabel[old - 1] - 1] = row
            relabeled = ProblemMatrix(np.array(rows))
            perm_new = [relabel[job - 1] for job in perm]
            assert makespan(mat, perm) == makespan(relabeled, perm_new)

    @pytest.mark.parametrize("t", [2, 3, 10])
    def test_scale_invariance(self, t):
        rng = Random(100 + t)
        for _ in range(20):
            mat = random_matrix(rng, rng.randint(2, 8), rng.randint(1, 5))
            perm = rng.sample(range(1, mat.n + 1), mat.n)
            scaled = ProblemMatrix(mat.p * t)
            assert makespan(scaled, perm) == t * makespan(mat, perm)

    @pytest.mark.parametrize("b", [1, 5, 13])
    def test_shift_invariance(self, b):
        rng = Random(200 + b)
        for _ in range(20):
            mat = random_matrix(rng, rng.randint(2, 8), rng.randint(1, 5))
            perm = rng.sample(range(1, mat.n + 1), mat.n)
            shifted = ProblemMatrix(mat.p + b)
            assert makespan(shifted, perm) == makespan(mat, perm) + (mat.m + mat.n - 1) * b

    def test_duplicate_job_rejected(self, fig2_matrix):
        with pytest.raises(InvalidPermutationError):
            makespan(fig2_matrix, [1, 2, 1])

    def test_out_of_range_job_rejected(self, fig2_matrix):
        with pytest.raises(JobIndexError):
            makespan(fig2_matrix, [1, 11])

    def test_empty_schedule_rejected(self, fig2_matrix):
        with pytest.raises(EmptyScheduleError):
            makespan(fig2_matrix, [])


class TestBatchMakespans:
    def _check(self, mat, seqs):
        values = _makespans(mat.p, seqs)
        assert values.dtype == np.int64
        assert values.tolist() == [dp_makespan(mat.rows(), seq) for seq in seqs]

    def test_agrees_with_dp_oracle_on_partial_sequences(self):
        rng = Random(20261018)
        for _ in range(100):
            n, m = rng.randint(1, 8), rng.randint(1, 6)
            mat = random_matrix(rng, n, m, low=0, high=rng.choice([3, 99]))
            size = rng.randint(1, n)
            self._check(mat, [rng.sample(range(1, n + 1), size) for _ in range(rng.randint(1, 6))])

    def test_one_machine(self):
        rng = Random(3)
        mat = random_matrix(rng, 6, 1)
        self._check(mat, [rng.sample(range(1, 7), 4) for _ in range(5)])

    def test_one_job(self, fig2_matrix):
        self._check(fig2_matrix, [[job] for job in range(1, 11)])

    def test_all_zero_times(self):
        mat = ProblemMatrix(np.zeros((5, 3), dtype=np.int64))
        self._check(mat, [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]])

    def test_large_times_stay_exact(self):
        rng = Random(4)
        mat = random_matrix(rng, 7, 4, low=10**12, high=10**12 + 999)
        self._check(mat, [rng.sample(range(1, 8), 7) for _ in range(4)])

    def test_int32_and_int64_sides_of_the_sum_limit(self):
        # the kernel's width follows the critical-path bound (L + m - 1) * max p;
        # matrices whose total time sits at 2**31 - 1, one unit past it or at
        # twice it, and 2x2 times near 2**30, reach the int32 and int64 sides
        # of that bound and give makespans up to past int32
        limit = 2**31 - 1
        rng = Random(8)
        for total in (limit, limit + 1, 2 * limit):
            for _ in range(10):
                n, m = rng.randint(1, 5), rng.randint(1, 4)
                p = np.array(random_matrix(rng, n, m).p)
                p[rng.randrange(n), rng.randrange(m)] += total - int(p.sum())
                mat = ProblemMatrix(p)
                for size in (n, rng.randint(1, n)):  # whole and partial sequences
                    self._check(mat, [rng.sample(range(1, n + 1), size) for _ in range(3)])
            column = ProblemMatrix(np.array([[total - 3], [1], [2]]))
            self._check(column, [[1, 2, 3], [3, 1, 2]])
            self._check(column, [[2, 1], [1, 3]])
        near = ProblemMatrix(np.array([[2**30, 2**30 - 1], [2**30 - 2, 2**30]]))
        self._check(near, [[1, 2], [2, 1]])
        self._check(near, [[1], [2]])
        assert _makespans(near.p, [[1, 2]]).tolist() == [3 * 2**30 - 1]

    def test_packed_int32_rows(self):
        # the engine hands over its walks as packed 16-bit cells while the job
        # numbers fit, else as packed int32 cells
        rng = Random(5)
        mat = random_matrix(rng, 9, 4)
        seqs = [rng.sample(range(1, 10), 6) for _ in range(7)]
        for typecode, dtype in (("h", np.int16), ("i", np.int32)):
            packed = array(typecode, [job for seq in seqs for job in seq])
            rows = np.frombuffer(packed.tobytes(), dtype=dtype).reshape(len(seqs), 6)
            self._check(mat, rows)

    def test_each_width_at_its_edge(self):
        # no completion time of an L-job sequence on m machines exceeds
        # (L + m - 1) * max p, and equal times reach that bound: 4 of 6 jobs on
        # 4 machines at 4681 each end at exactly 7 * 4681 = 2**15 - 1, the
        # int16 edge, and one unit more on job 1 ends one past it, in int32
        for extra in (0, 1):
            p = np.full((6, 4), 4681)
            p[0, 0] += extra
            mat = ProblemMatrix(p)
            seqs = [[1, 2, 3, 4], [4, 3, 2, 1], [6, 1, 5, 2]]
            self._check(mat, seqs)
            assert _makespans(mat.p, seqs).tolist() == [2**15 - 1 + extra] * 3
        # either side of 2**31 - 1, the int32 edge: one job on one machine,
        # and 2 jobs on 2 machines at 3 * 715827882 = 2**31 - 2 and one more
        # unit each
        for value in (2**31 - 1, 2**31):
            self._check(ProblemMatrix(np.array([[value]])), [[1]])
        for value in (715827882, 715827883):
            mat = ProblemMatrix(np.full((2, 2), value))
            self._check(mat, [[1, 2], [2, 1]])
            assert _makespans(mat.p, [[1, 2]]).tolist() == [3 * value]

    def test_batch_of_thousands_of_rows(self):
        rng = Random(6)
        mat = random_matrix(rng, 30, 6)
        self._check(mat, np.array([rng.sample(range(1, 31), 30) for _ in range(3000)], dtype=np.int32))


class TestLowerBound:
    def test_single_machine_column_sum(self):
        assert lower_bound(ProblemMatrix([[3], [4]])) == 7

    def test_single_job_row_sum(self):
        assert lower_bound(ProblemMatrix([[5, 5]])) == 10

    def test_never_exceeds_brute_force_optimum(self):
        rng = Random(31)
        for _ in range(10):
            mat = random_matrix(rng, 5, 3)
            best, _ = brute_force_optimum(mat.rows())
            assert lower_bound(mat) <= best

    def test_below_any_permutation(self):
        rng = Random(32)
        for _ in range(25):
            mat = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 5))
            perm = rng.sample(range(1, mat.n + 1), mat.n)
            assert lower_bound(mat) <= makespan(mat, perm)


class TestParsing:
    def test_canonical_roundtrip_echo(self):
        inst = parse_instance("2 3\n1 2 3\n4 5 6")
        assert inst.n == 2 and inst.m == 3
        assert inst.matrix.rows() == [[1, 2, 3], [4, 5, 6]]

    def test_taillard_is_transposed(self):
        canonical = parse_instance("2 3\n1 2 3\n4 5 6")
        taillard = parse_instance("2 3\n1 4\n2 5\n3 6", fmt="taillard")
        assert (canonical.matrix.p == taillard.matrix.p).all()

    def test_taillard_header_extras(self):
        inst = parse_instance("2 2 99 12 9 extra tokens\n1 2\n3 4", fmt="taillard")
        assert inst.best_known == 12

    def test_write_then_parse_roundtrip(self):
        rng = Random(77)
        inst = Instance(random_matrix(rng, 6, 4), name="t")
        again = parse_instance(write_instance(inst))
        assert (again.matrix.p == inst.matrix.p).all()

    def test_dimension_mismatch_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_instance("2 3\n1 2 3\n4 5")

    def test_non_numeric_token_reports_position(self):
        with pytest.raises(ParseError, match="line 2, column 2"):
            parse_instance("1 3\n1 x 3")

    def test_negative_time_rejected(self):
        with pytest.raises(ParseError, match="negative"):
            parse_instance("1 2\n3 -1")

    @pytest.mark.parametrize(
        "text, fmt, line, column",
        [
            ("1 2\n3 99999999999999999999", "canonical", 2, 2),
            ("1 2\n3\n99999999999999999999", "taillard", 3, 1),
            (f"2 2\n1 2\n3 {2**63 // 4}", "canonical", 3, 2),
        ],
        ids=["canonical", "taillard", "sum-may-overflow"],
    )
    def test_time_too_large_for_int64_reports_position(self, text, fmt, line, column):
        with pytest.raises(ParseError, match="too large") as err:
            parse_instance(text, fmt=fmt)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize(
        "text, fmt",
        [("2 1000000000000\n1 2\n3 4\n", "canonical"), ("1000000000000 1 5\n1 2\n", "taillard")],
        ids=["canonical", "taillard"],
    )
    def test_overstated_dimension_reports_line_before_allocating(self, text, fmt):
        # a header's dimensions are checked against the data lines before the
        # matrix they describe, terabytes here, is allocated
        with pytest.raises(ParseError, match="line 2: expected 1000000000000 values, found 2"):
            parse_instance(text, fmt=fmt)

    def test_missing_rows_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("3 2\n1 2")

    def test_best_known_below_lower_bound_rejected(self):
        # the fourth header token is the best-known makespan
        with pytest.raises(ParseError, match="below trivial lower bound 10") as err:
            parse_instance("1 2 5 3\n5\n5", fmt="taillard")
        assert (err.value.line, err.value.column) == (1, 4)


class TestGenerator:
    def test_times_within_range(self):
        inst = generate_taillard(30, 7, 424242)
        assert inst.matrix.p.min() >= 1
        assert inst.matrix.p.max() <= 99

    def test_deterministic(self):
        a = generate_taillard(12, 4, 999)
        b = generate_taillard(12, 4, 999)
        assert (a.matrix.p == b.matrix.p).all()

    def test_matches_schrage_form_reference(self):
        for seed in (1, 873654221, 2**31 - 3):
            ours = generate_taillard(15, 6, seed).matrix.rows()
            ref = taillard_reference(15, 6, seed)
            assert ours == ref

    def test_first_benchmark_instance_reproduced(self):
        # The worked 10x5 example's rows are printed rows of the first 20x5
        # benchmark instance; with the published time seed they must all
        # reappear at their source job positions.
        inst = generate_taillard(20, 5, TA001_TIME_SEED)
        rows = inst.matrix.rows()
        source_jobs = [1, 2, 3, 4, 5, 6, 10, 11, 18, 19]
        for fig_row, job in zip(FIG2_TIMES, source_jobs):
            assert rows[job - 1] == fig_row

    def test_seed_out_of_range(self):
        with pytest.raises(ParameterError):
            generate_taillard(5, 5, 0)
        with pytest.raises(ParameterError):
            generate_taillard(5, 5, 2**31 - 1)


class TestTypes:
    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            ProblemMatrix([[1, -2]])

    def test_times_whose_sum_overflows_int64_rejected(self):
        with pytest.raises(ParameterError, match="64-bit"):
            ProblemMatrix([[2**62], [2**62]])
        assert ProblemMatrix([[2**62 - 1], [2**62 - 1]]).n == 2

    def test_empty_matrix_rejected(self):
        with pytest.raises(ParameterError):
            ProblemMatrix(np.zeros((0, 3), dtype=int))

    def test_fractional_time_rejected(self):
        with pytest.raises(ParameterError, match="not an integer"):
            ProblemMatrix([[1.5]])
        with pytest.raises(ParameterError, match="not an integer"):
            ProblemMatrix(np.array([[2.0, 3.0]]))

    def test_boolean_time_rejected(self):
        with pytest.raises(ParameterError, match="True of job 1 on machine 1"):
            ProblemMatrix([[True, 2]])
        with pytest.raises(ParameterError, match="not an integer"):
            ProblemMatrix(np.array([[True]]))

    def test_string_time_rejected(self):
        with pytest.raises(ParameterError, match="'3' of job 2 on machine 1"):
            ProblemMatrix([[1], ["3"]])

    def test_time_beyond_int64_rejected(self):
        with pytest.raises(ParameterError, match="64-bit"):
            ProblemMatrix([[2**63]])
        with pytest.raises(ParameterError, match="64-bit"):
            ProblemMatrix(np.array([[2**63]], dtype=np.uint64))

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
    )
    def test_integer_arrays_of_any_width_accepted(self, dtype):
        mat = ProblemMatrix(np.array([[1, 2], [3, 4]], dtype=dtype))
        assert mat.p.dtype == np.int64
        assert mat.p.tolist() == [[1, 2], [3, 4]]
        assert makespan(mat, [1, 2]) == 1 + 3 + 4

    def test_best_known_validated(self, fig2_matrix):
        with pytest.raises(ParameterError):
            Instance(fig2_matrix, best_known=10)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_owns_a_read_only_copy(self, order):
        source = np.array([[3, 4], [5, 6]], dtype=np.int64, order=order)
        mat = ProblemMatrix(source)
        assert makespan(mat, [1, 2]) == 14
        source[0, 0] = -100  # a time the constructor would have rejected
        assert mat.p.tolist() == [[3, 4], [5, 6]]
        assert makespan(mat, [1, 2]) == 14
        assert _makespans(mat.p, [[1, 2]]).tolist() == [14]
        assert mat.p.flags.c_contiguous and not mat.p.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mat.p[0, 0] = 0

    def test_rows_are_a_fresh_list(self):
        mat = ProblemMatrix([[3, 4], [5, 6]])
        rows = mat.rows()
        rows[0][0] = 100
        assert mat.rows() == [[3, 4], [5, 6]]
        assert makespan(mat, [1, 2]) == 14


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: ProblemMatrix([1, 2, 3]), ParameterError,
         "processing-time matrix must be 2-D, got shape (3,)"),
        (lambda: parse_instance("1 1\n5\n", "csv"), ParameterError, "unknown format 'csv'"),
        (lambda: parse_instance(" \n\n"), ParseError, "line 1: empty instance file"),
        (lambda: parse_instance("3\n1 2 3\n"), ParseError,
         "line 1: header needs at least 'n m'"),
        (lambda: parse_instance("0 3\n"), ParseError, "line 1: invalid dimensions 0 x 3"),
        (lambda: parse_instance("2 2 x\n1 2\n3 4", fmt="taillard"), ParseError,
         "line 1, column 3: non-numeric token 'x'"),
        (lambda: generate_taillard(0, 5, 1), ParameterError, "need n >= 1 and m >= 1"),
    ],
    ids=["1-d-matrix", "unknown-format", "empty-text", "one-token-header", "zero-jobs",
         "taillard-non-integer-seed", "generate-zero-jobs"],
)
def test_malformed_input_rejected(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message
