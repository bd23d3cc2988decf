from random import Random

import numpy as np
import pytest

import flowmt.search
import flowmt.transfer
from flowmt.errors import InvalidPermutationError, ParameterError
from flowmt.instance import ProblemMatrix, makespan
from flowmt.search import (
    _draw_walk,
    _insert_best,
    _position_pairs,
    _walk_batch,
    _walk_minima,
    neh,
    solve_eat,
)
from flowmt.transfer import patch

from conftest import StopOnCall, random_matrix
from oracles import brute_force_optimum, dp_makespan, neh_reference


def lst_priority(matrix):
    sums = [(sum(row), job) for job, row in enumerate(matrix.rows(), start=1)]
    return [job for _, job in sorted(sums, key=lambda t: (-t[0], t[1]))]


def tie_heavy_matrix(rng):
    # few jobs, few machines and times 0..3, so many slots tie
    return random_matrix(rng, rng.randint(1, 9), rng.randint(1, 4), low=0, high=3)


def best_slots(times, seq, job):
    """Every slot of ``seq`` where inserting ``job`` gives the least makespan."""
    values = [dp_makespan(times, seq[:pos] + [job] + seq[pos:]) for pos in range(len(seq) + 1)]
    return [pos for pos, value in enumerate(values) if value == min(values)]


def brute_force_insertion(times, seq, jobs, latest_ties):
    seq = list(seq)
    for job in jobs:
        slots = best_slots(times, seq, job)
        seq.insert(slots[-1] if latest_ties else slots[0], job)
    return seq


def random_batch(rng, mat, count):
    """``count`` orders of one random job subset, plus the other jobs to insert."""
    perm = rng.sample(range(1, mat.n + 1), mat.n)
    cut = rng.randint(0, mat.n)
    rows = [rng.sample(perm[:cut], cut) for _ in range(count)]
    return rows, perm[cut:]


class TestInsertBest:
    @pytest.mark.parametrize("latest_ties", [True, False])
    def test_matches_brute_force_best_slot(self, latest_ties):
        rng = Random(29)
        for count in [1, 2, 5] * 100:
            mat = tie_heavy_matrix(rng)
            times = mat.rows()
            rows, jobs = random_batch(rng, mat, count)
            before = [list(row) for row in rows]
            grown, values = _insert_best(mat, rows, jobs, latest_ties)
            assert rows == before  # the input rows are not grown in place
            assert grown == [brute_force_insertion(times, row, jobs, latest_ties) for row in rows]
            if jobs:
                assert values == [dp_makespan(times, row) for row in grown]
            else:
                assert values == []

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_latest_ties_from_empty_rows_is_neh(self, count):
        rng = Random(31)
        for _ in range(60):
            mat = random_matrix(rng, rng.randint(1, 9), rng.randint(1, 5), low=0, high=rng.choice([3, 99]))
            priority = rng.sample(range(1, mat.n + 1), mat.n)
            ref_seq, ref_value = neh_reference(mat.rows(), priority)
            grown, values = _insert_best(mat, [[] for _ in range(count)], priority, True)
            assert grown == [ref_seq] * count
            assert values == [ref_value] * count

    @pytest.mark.parametrize("latest_ties", [True, False])
    def test_rows_tying_at_different_slots_stay_independent(self, latest_ties):
        # a batch gives each row exactly what a batch of one gives it, also
        # when the rows' tied best slots differ
        rng = Random(32)
        independent = 0
        for _ in range(400):
            mat = tie_heavy_matrix(rng)
            times = mat.rows()
            rows, jobs = random_batch(rng, mat, 3)
            if not jobs or not rows[0]:
                continue
            ties = [best_slots(times, row, jobs[0]) for row in rows]
            chosen = {slots[-1] if latest_ties else slots[0] for slots in ties}
            if len(chosen) < 2 or all(len(slots) < 2 for slots in ties):
                continue
            independent += 1
            grown, values = _insert_best(mat, rows, jobs, latest_ties)
            for row, seq, value in zip(rows, grown, values):
                assert _insert_best(mat, [row], jobs, latest_ties) == ([seq], [value])
                assert seq == brute_force_insertion(times, row, jobs, latest_ties)
        assert independent >= 20

    @pytest.mark.parametrize("count", [1, 3])
    def test_stop_is_checked_once_before_each_step(self, count):
        rng = Random(33)
        mat = random_matrix(rng, 8, 3)
        rows, jobs = [rng.sample([1, 2, 3], 3) for _ in range(count)], [4, 5, 6, 7, 8]
        for k in range(1, len(jobs) + 1):
            stop = StopOnCall(k)
            assert _insert_best(mat, rows, jobs, False, stop=stop) == ([], [])
            assert stop.calls == k
        stop = StopOnCall(len(jobs) + 1)
        assert _insert_best(mat, rows, jobs, False, stop=stop) == _insert_best(mat, rows, jobs, False)
        assert stop.calls == len(jobs)

    def test_neh_and_ri_patching_pass_no_stop(self, fig2_matrix, monkeypatch):
        stops = []

        def recording(*args, stop=None, **kwargs):
            stops.append(stop)
            return _insert_best(*args, stop=stop, **kwargs)

        monkeypatch.setattr(flowmt.search, "_insert_best", recording)
        monkeypatch.setattr(flowmt.transfer, "_insert_best", recording)
        neh(fig2_matrix, lst_priority(fig2_matrix))
        patch("ri", [4, 9, 5, 7], [2, 8, 10, 6, 1, 3], fig2_matrix)
        assert stops == [None, None]

    @pytest.mark.parametrize("kind", [list, tuple])
    def test_input_rows_are_left_untouched(self, kind):
        rng = Random(34)
        for count in [1, 3] * 20:
            mat = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 4))
            rows, jobs = random_batch(rng, mat, count)
            given = kind(kind(row) for row in rows)
            before = [list(row) for row in given]
            grown, _ = _insert_best(mat, given, jobs, False)
            assert [list(row) for row in given] == before
            assert all(type(row) is kind for row in given)
            assert not any(seq is row for seq, row in zip(grown, given))

    def test_results_are_plain_ints(self):
        rng = Random(35)
        for count in [1, 3] * 20:
            mat = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 4))
            rows, jobs = random_batch(rng, mat, count)
            grown, values = _insert_best(mat, rows, jobs, True)
            assert all(type(job) is int for seq in grown for job in seq)
            assert all(type(value) is int for value in values)

    def test_largest_accepted_times_stay_exact(self):
        # at the largest time ProblemMatrix accepts, every partial makespan
        # is within int64 but the sums of heads and tails come close to it
        rng = Random(36)
        for _ in range(40):
            n, m = rng.randint(2, 7), rng.randint(1, 4)
            top = np.iinfo(np.int64).max // (n * m)
            times = [[rng.choice([0, top, rng.randint(0, top)]) for _ in range(m)] for _ in range(n)]
            mat = ProblemMatrix(np.array(times, dtype=np.int64))
            priority = rng.sample(range(1, n + 1), n)
            assert neh(mat, priority) == neh_reference(times, priority)[0]
            cut = rng.randint(0, n)
            assert patch("ri", priority[:cut], priority[cut:], mat) == brute_force_insertion(
                times, priority[:cut], priority[cut:], False
            )
            rows, jobs = random_batch(rng, mat, 3)
            grown, values = _insert_best(mat, rows, jobs, False)
            assert grown == [brute_force_insertion(times, row, jobs, False) for row in rows]
            assert values == ([dp_makespan(times, seq) for seq in grown] if jobs else [])


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
    rows = _walk_batch(matrix.n)
    _draw_walk(perm, iterations, rng, rows)
    seqs, values = _walk_minima(matrix.p, rows, 1, len(perm))
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

    # job counts on both sides of random.sample's pool/set threshold (21/22)
    @pytest.mark.parametrize(
        "jobs, iterations",
        [pytest.param(9, it, id=str(it)) for it in (0, 1, 50)]
        + [pytest.param(jobs, 50, id=f"{jobs}jobs") for jobs in (2, 21, 22, 50)],
    )
    def test_draws_exactly_its_moves(self, jobs, iterations):
        mat = random_matrix(Random(jobs), jobs, 3)
        perm = Random(jobs + 1).sample(range(1, jobs + 1), jobs)
        rng, twin = Random(12), Random(12)
        walk(mat, perm, iterations, rng)
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
            rows = _walk_batch(mat.n)
            for perm in starts:
                _draw_walk(perm, 15, walk_rng, rows)
            seqs, values = _walk_minima(mat.p, rows, len(starts), mat.n)
            expected = [replay_best(mat.rows(), perm, 15, twin) for perm in starts]
            assert seqs == [seq for seq, _ in expected]
            assert values == [value for _, value in expected]

    def test_batch_is_16_bit_while_job_numbers_fit(self):
        narrow, wide = _walk_batch(2**15 - 1), _walk_batch(2**15)
        assert (narrow.typecode, wide.typecode) == ("h", "i")
        _draw_walk([2**15 - 1, 1, 2], 3, Random(4), narrow)
        _draw_walk([2**15, 1, 2], 3, Random(4), wide)
        assert [job for job in narrow if job > 2] == [2**15 - 1] * 4
        assert [job for job in wide if job > 2] == [2**15] * 4

    def test_draw_appends_after_the_batch_rows(self):
        rng = Random(33)
        first, second = rng.sample(range(1, 13), 12), rng.sample(range(1, 13), 12)
        rows = _walk_batch(12)
        _draw_walk(first, 10, Random(1), rows)
        earlier = rows.tolist()
        walk_rng, twin = Random(2), Random(2)
        _draw_walk(second, 10, walk_rng, rows)
        alone = _walk_batch(12)
        _draw_walk(second, 10, twin, alone)
        assert len(earlier) == len(alone) == 11 * 12
        assert earlier[:12] == first and alone[:12].tolist() == second
        assert rows.tolist() == earlier + alone.tolist()
        assert rows.typecode == "h"

    def test_partial_permutation_supported(self, fig2_matrix):
        partial = [5, 9, 4, 7]
        out = walk(fig2_matrix, partial, 100, Random(8))
        assert sorted(out) == sorted(partial)
        assert makespan(fig2_matrix, out) <= makespan(fig2_matrix, partial)


class TestTwoPositions:
    # The pair routine replays CPython's random.sample draw for draw, so the
    # oracle is random.sample itself: a Python that draws a sample differently
    # fails here. A count of 1 is what the crossover and swap mutation draw, 50
    # a default INSERT walk.
    @pytest.mark.parametrize("n", [*range(2, 26), 50, 200])
    def test_matches_random_sample(self, n):
        for count in (1, 50):
            rng, twin = Random(n), Random(n)
            getrandbits = twin.getrandbits
            for _ in range(2000 // count):
                expected = [pos for _ in range(count) for pos in sorted(rng.sample(range(n), 2))]
                assert _position_pairs(n, count, getrandbits) == expected
            assert rng.getstate() == twin.getstate()


class TestSolveEat:
    def test_zero_iterations_returns_neh_seed(self):
        rng = Random(25)
        mat = random_matrix(rng, 6, 4)
        seed_perm = neh(mat, lst_priority(mat))
        assert solve_eat(mat, 0, Random(1)) == seed_perm

    def test_negative_budget_rejected(self, fig2_matrix):
        with pytest.raises(ParameterError):
            solve_eat(fig2_matrix, -1, Random(1))

    def test_all_zero_times_keep_the_neh_seed(self):
        # T0 = m * mean(p) / 10 is 0 here, so annealing starts from T0 = 1;
        # every move ties and none improves on the seed
        zero = ProblemMatrix(np.zeros((4, 3), dtype=np.int64))
        best = solve_eat(zero, 50, Random(2))
        assert best == solve_eat(zero, 0, Random(2))
        assert sorted(best) == [1, 2, 3, 4]

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
