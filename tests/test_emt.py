from random import Random

import time

import pytest

import flowmt.emt
import flowmt.search
from flowmt.auxiliary import build_eat
from flowmt.emt import (
    TASK_EAT,
    TASK_EXP,
    Engine,
    EngineConfig,
    ImpTsk,
    Individual,
    RndTsk,
    TaskPair,
)
from flowmt.errors import ConfigError, UnderfullPoolError
from flowmt.instance import Instance, ProblemMatrix, generate_taillard, makespan
from flowmt.transfer import project_to_eat, rov_decode

from conftest import FIG2_TIMES, StopOnCall, random_matrix
from oracles import gauss_mutate_reference, sbx_reference


def make_pair(fig2_matrix, measure="lsp", k=40):
    return TaskPair(Instance(fig2_matrix, name="fig2"), ImpTsk(measure, k))


def rescore(eng, task, genotype):
    """A genotype's objective on one task, from the checked scalar evaluator."""
    return makespan(eng.tasks[task][0], eng.decode_task(task, genotype))


def make_engine(fig2_matrix, **overrides):
    defaults = dict(
        population=8,
        ls_intensity=5,
        transfer_mode="ri",
        max_generations=3,
        rng_seed=5,
    )
    defaults.update(overrides)
    return Engine(make_pair(fig2_matrix), EngineConfig(**defaults))


class TestConfigValidation:
    def test_odd_population_rejected(self):
        with pytest.raises(ConfigError):
            EngineConfig(population=7, max_generations=1)

    def test_missing_termination_rejected(self):
        with pytest.raises(ConfigError):
            EngineConfig()

    def test_nan_budget_rejected(self):
        # a NaN deadline never passes, so a budget-only run would never end
        with pytest.raises(ConfigError, match="time budget must be >= 0"):
            EngineConfig(time_budget=float("nan"))
        with pytest.raises(ConfigError, match="time budget must be >= 0"):
            EngineConfig(time_budget=float("nan"), max_generations=1)
        with pytest.raises(ConfigError, match="infinite time budget needs a generation limit"):
            EngineConfig(time_budget=float("inf"))
        EngineConfig(time_budget=float("inf"), max_generations=1)

    def test_ri_with_random_pairing_rejected_at_construction(self, fig2_matrix):
        rng = Random(1)
        aux = Instance(random_matrix(rng, 4, 5), name="aux")
        pair = TaskPair(Instance(fig2_matrix, name="fig2"), RndTsk(2, aux))
        with pytest.raises(ConfigError):
            Engine(pair, EngineConfig(transfer_mode="ri", max_generations=1))

    def test_random_pairing_machine_mismatch_rejected(self, fig2_matrix):
        rng = Random(2)
        aux = Instance(random_matrix(rng, 4, 3), name="aux")
        with pytest.raises(ConfigError):
            TaskPair(Instance(fig2_matrix, name="fig2"), RndTsk(2, aux))

    def test_random_pairing_size_constraints(self, fig2_matrix):
        rng = Random(3)
        exp = Instance(fig2_matrix, name="fig2")
        same = Instance(random_matrix(rng, 10, 5), name="same")
        small = Instance(random_matrix(rng, 6, 5), name="small")
        big = Instance(random_matrix(rng, 14, 5), name="big")
        TaskPair(exp, RndTsk(1, same))
        TaskPair(exp, RndTsk(2, small))
        TaskPair(exp, RndTsk(3, big))
        with pytest.raises(ConfigError):
            TaskPair(exp, RndTsk(1, small))
        with pytest.raises(ConfigError):
            TaskPair(exp, RndTsk(2, big))
        with pytest.raises(ConfigError):
            TaskPair(exp, RndTsk(3, same))


class TestInitialize:
    def test_population_size_and_skills(self, fig2_matrix):
        eng = make_engine(fig2_matrix)
        pop = eng.initialize(Random(5))
        assert len(pop) == 8
        assert all(ind.skill in (TASK_EXP, TASK_EAT) for ind in pop)
        assert all(TASK_EXP in ind.objectives and TASK_EAT in ind.objectives for ind in pop)

    def test_deterministic(self, fig2_matrix):
        a = make_engine(fig2_matrix).initialize(Random(5))
        b = make_engine(fig2_matrix).initialize(Random(5))
        assert [ind.genotype for ind in a] == [ind.genotype for ind in b]
        assert [ind.skill for ind in a] == [ind.skill for ind in b]

    def test_skill_matches_rank_rederivation(self, fig2_matrix):
        eng = make_engine(fig2_matrix)
        pop = eng.initialize(Random(6))
        for task in (TASK_EXP, TASK_EAT):
            order = sorted(pop, key=lambda ind: (ind.objectives[task], ind.uid))
            for rank, ind in enumerate(order, start=1):
                ind.__dict__.setdefault("_ranks", {})[task] = rank
        for ind in pop:
            expected = TASK_EAT if ind._ranks[TASK_EAT] < ind._ranks[TASK_EXP] else TASK_EXP
            assert ind.skill == expected


class TestMate:
    def test_same_skill_offspring_inherit(self, fig2_matrix):
        eng = make_engine(fig2_matrix)
        eng.resolve(Random(1))
        pa = Individual(genotype=tuple([0.3] * 10), skill=TASK_EAT, uid=eng._next_uid())
        pb = Individual(genotype=tuple([0.8] * 10), skill=TASK_EAT, uid=eng._next_uid())
        for _ in range(20):
            kids = eng.mate(pa, pb, Random(2))
            assert all(kid.skill == TASK_EAT for kid in kids)

    def test_rmp_zero_mixed_parents_mutate_only(self, fig2_matrix, monkeypatch):
        monkeypatch.setattr(flowmt.emt, "_RMP", 0.0)
        eng = make_engine(fig2_matrix)
        eng.resolve(Random(1))
        pa = Individual(genotype=tuple([0.25] * 10), skill=TASK_EXP, uid=eng._next_uid())
        pb = Individual(genotype=tuple([0.75] * 10), skill=TASK_EAT, uid=eng._next_uid())
        rng = Random(3)
        for _ in range(50):
            kids = eng.mate(pa, pb, rng)
            assert kids[0].skill == TASK_EXP
            assert kids[1].skill == TASK_EAT
            # gaussian perturbation keeps each child near its own parent
            assert max(abs(v - 0.25) for v in kids[0].genotype) < 0.5
            assert max(abs(v - 0.75) for v in kids[1].genotype) < 0.5

    def test_rmp_one_always_crosses(self, fig2_matrix, monkeypatch):
        monkeypatch.setattr(flowmt.emt, "_RMP", 1.0)
        monkeypatch.setattr(flowmt.emt, "_MUT_SIGMA", 0.0)
        eng = make_engine(fig2_matrix)
        eng.resolve(Random(1))
        pa = Individual(genotype=tuple([0.2] * 10), skill=TASK_EXP, uid=eng._next_uid())
        pb = Individual(genotype=tuple([0.9] * 10), skill=TASK_EAT, uid=eng._next_uid())
        rng = Random(4)
        crossed = 0
        for _ in range(10000):
            kids = eng.mate(pa, pb, rng)
            # with mut_sigma 0, a mutation-only child would equal its parent;
            # SBX children differ from both parents almost surely
            if kids[0].genotype != pa.genotype and kids[1].genotype != pb.genotype:
                crossed += 1
        assert crossed == 10000

    def test_permutation_encoding_operators(self, fig2_matrix):
        eng = make_engine(fig2_matrix, encoding="perm")
        eng.resolve(Random(1))
        pa = Individual(genotype=tuple(range(1, 11)), skill=TASK_EXP, uid=eng._next_uid())
        pb = Individual(genotype=tuple(range(10, 0, -1)), skill=TASK_EXP, uid=eng._next_uid())
        rng = Random(5)
        for _ in range(50):
            for kid in eng.mate(pa, pb, rng):
                assert sorted(kid.genotype) == list(range(1, 11))


def perm_engine(jobs):
    inst = Instance(random_matrix(Random(jobs), jobs, 3), name=f"n{jobs}")
    config = EngineConfig(encoding="perm", population=4, max_generations=1)
    return Engine(TaskPair(inst, RndTsk(1, inst)), config)


class TestPermutationOperators:
    # gene counts on both sides of random.sample's pool/set threshold (21/22)
    @pytest.mark.parametrize("genes", [2, 9, 21, 22, 50])
    def test_swap_mutate_swaps_the_pair_that_sample_draws(self, genes):
        eng = perm_engine(genes)
        rng, twin = Random(genes), Random(genes)
        x = tuple(Random(genes + 1).sample(range(1, genes + 1), genes))
        for _ in range(200):
            out = eng._swap_mutate(x, rng)
            i, j = twin.sample(range(genes), 2)
            expected = list(x)
            expected[i], expected[j] = x[j], x[i]
            assert out == tuple(expected)
            assert rng.getstate() == twin.getstate()
            x = out

    @pytest.mark.parametrize("genes", [2, 9, 21, 22, 50])
    def test_ordered_crossover_keeps_the_slice_that_sample_draws(self, genes):
        eng = perm_engine(genes)
        rng, twin = Random(genes), Random(genes)
        shuffle = Random(genes + 1)
        for _ in range(200):
            pa = tuple(shuffle.sample(range(1, genes + 1), genes))
            pb = tuple(shuffle.sample(range(1, genes + 1), genes))
            ca, cb = eng._ordered_crossover(pa, pb, rng)
            i, j = sorted(twin.sample(range(genes), 2))
            assert rng.getstate() == twin.getstate()
            assert ca[i : j + 1] == pa[i : j + 1]
            assert cb[i : j + 1] == pb[i : j + 1]
            assert sorted(ca) == sorted(cb) == list(range(1, genes + 1))

    def test_one_gene_crosses_and_mutates_to_itself_drawing_nothing(self):
        eng = perm_engine(1)
        rng, twin = Random(7), Random(7)
        assert eng._ordered_crossover((1,), (1,), rng) == ((1,), (1,))
        assert eng._swap_mutate((1,), rng) == (1,)
        assert rng.getstate() == twin.getstate()


def realkey_engine():
    inst = Instance(random_matrix(Random(0), 5, 3), name="n5")
    return Engine(TaskPair(inst, RndTsk(1, inst)), EngineConfig(population=4, max_generations=1))


def exact(keys):
    return tuple(v.hex() for v in keys)


def clamped_parent(rng, genes):
    """Keys of which about two thirds sit on the clamp bounds, as SBX leaves them."""
    return tuple(rng.choice((0.0, 1.0, rng.random())) for _ in range(genes))


class TestRealKeyOperators:
    """The engine's tight loops against the plain ``random.gauss``/``min``/``max``
    loops of ``oracles``, on twin rngs: the same keys to the bit and the same
    rng state, ``gauss_next`` included, after every call."""

    GENES = [1, 2, 3, 20, 99, 100]

    @pytest.mark.parametrize("genes", GENES)
    def test_sbx_matches_reference(self, genes):
        eng = realkey_engine()
        rng, twin, parents = Random(genes), Random(genes), Random(-genes)
        for _ in range(300):
            xa, xb = clamped_parent(parents, genes), clamped_parent(parents, genes)
            got = eng._sbx(xa, xb, rng)
            want = sbx_reference(xa, xb, twin, flowmt.emt._SBX_ETA)
            assert [exact(c) for c in got] == [exact(c) for c in want]
            assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize("genes", GENES)
    def test_gauss_mutate_matches_reference(self, genes):
        # one rng across calls: with an odd gene count the spare deviate in
        # gauss_next carries from each call into the next
        eng = realkey_engine()
        rng, twin, parents = Random(genes), Random(genes), Random(-genes)
        for _ in range(300):
            x = clamped_parent(parents, genes)
            got = eng._gauss_mutate(x, rng)
            assert exact(got) == exact(gauss_mutate_reference(x, twin, flowmt.emt._MUT_SIGMA))
            assert rng.getstate() == twin.getstate()

    def test_mating_chain_matches_reference(self):
        # crossover, then mutation of both children, as mate makes them, with
        # gene counts that leave a spare deviate in gauss_next half the time
        eng = realkey_engine()
        rng, twin, parents = Random(11), Random(11), Random(12)
        for step in range(600):
            genes = self.GENES[step % len(self.GENES)]
            xa, xb = clamped_parent(parents, genes), clamped_parent(parents, genes)
            kids = eng._sbx(xa, xb, rng)
            want = sbx_reference(xa, xb, twin, flowmt.emt._SBX_ETA)
            for kid, ref in zip(kids, want):
                got = eng._gauss_mutate(kid, rng)
                ref = gauss_mutate_reference(ref, twin, flowmt.emt._MUT_SIGMA)
                assert exact(got) == exact(ref)
                assert rng.getstate() == twin.getstate()


def improve_alone(eng, ind, rng):
    """Draw one individual's walk into a batch of its own and score it."""
    rows = flowmt.search._walk_batch(eng.D)
    eng.improve([ind], [eng.draw(ind, rng, rows)], rows)


class TestImprove:
    def test_zero_intensity_leaves_genotype(self, fig2_matrix):
        eng = make_engine(fig2_matrix, ls_intensity=0)
        pop = eng.initialize(Random(7))
        ind = pop[0]
        before = ind.genotype
        improve_alone(eng, ind, Random(8))
        assert ind.genotype == before

    def test_alignment_contract(self, fig2_matrix):
        eng = make_engine(fig2_matrix)
        pop = eng.initialize(Random(9))
        rng = Random(10)
        for ind in pop:
            improve_alone(eng, ind, rng)
            # decoding reproduces the improved sequence: the stored objective
            # must equal re-evaluating the genotype from scratch
            assert ind.objectives[ind.skill] == rescore(eng, ind.skill, ind.genotype)
            assert sorted(rov_decode(ind.genotype)) == list(range(1, 11))

    def test_monotone_over_seeded_offspring(self, fig2_matrix):
        eng = make_engine(fig2_matrix, ls_intensity=25)
        pop = eng.initialize(Random(11))
        rng = Random(12)
        for trial in range(100):
            parents = rng.sample(pop, 2)
            kids = eng.mate(parents[0], parents[1], rng)
            for kid in kids:
                kid.objectives[kid.skill] = rescore(eng, kid.skill, kid.genotype)
                before = kid.objectives[kid.skill]
                improve_alone(eng, kid, rng)
                assert kid.objectives[kid.skill] <= before

    def test_eat_improve_keeps_noncritical_positions(self, fig2_matrix):
        eng = make_engine(fig2_matrix, ls_intensity=50)
        eng.resolve(Random(13))
        genotype = tuple(Random(14).random() for _ in range(10))
        ind = Individual(genotype=genotype, skill=TASK_EAT, uid=eng._next_uid())
        ind.objectives[TASK_EAT] = rescore(eng, TASK_EAT, genotype)
        before_full = rov_decode(genotype)
        improve_alone(eng, ind, Random(15))
        after_full = rov_decode(ind.genotype)
        critical = eng.tasks[TASK_EAT][1]
        for pos, (a, b) in enumerate(zip(before_full, after_full)):
            if a not in critical:
                assert a == b, f"non-critical job moved at position {pos}"


class TestExplicitTransfer:
    def test_period_gate(self, fig2_matrix, monkeypatch):
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 5)
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_COUNT", 3)
        eng = make_engine(fig2_matrix)
        pop = eng.initialize(Random(16))
        assert eng.explicit_transfer(pop, 3) == []
        assert eng.explicit_transfer(pop, 5) != []

    def test_no_donors_gives_empty(self, fig2_matrix, monkeypatch):
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 1)
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_COUNT", 3)
        eng = make_engine(fig2_matrix)
        pop = eng.initialize(Random(18))
        only_exp = [ind for ind in pop if ind.skill == TASK_EXP]
        assert eng.explicit_transfer(only_exp, 5) == []

    def test_ik_mode_never_transfers(self, fig2_matrix):
        eng = make_engine(fig2_matrix, transfer_mode="ik")
        pop = eng.initialize(Random(20))
        assert eng.explicit_transfer(pop, 5) == []

    def test_skeleton_preservation(self, fig2_matrix, monkeypatch):
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 1)
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_COUNT", 8)
        eng = make_engine(fig2_matrix)
        pop = eng.initialize(Random(22))
        donors = sorted(
            (ind for ind in pop if ind.skill == TASK_EAT),
            key=lambda ind: (ind.objectives[TASK_EAT], ind.uid),
        )
        transferred = eng.explicit_transfer(pop, 5)
        assert len(transferred) == min(len(donors), 8)
        critical = eng.tasks[TASK_EAT][1]
        for donor, new in zip(donors, transferred):
            assert new.skill == TASK_EXP
            full = rov_decode(new.genotype)
            assert sorted(full) == list(range(1, 11))
            assert project_to_eat(full, critical) == eng.decode_task(TASK_EAT, donor.genotype)
            assert new.objectives[TASK_EXP] == makespan(fig2_matrix, full)


    @pytest.mark.parametrize("encoding", ["realkey", "perm"])
    def test_stored_objective_is_the_decoded_makespan(self, fig2_matrix, monkeypatch, encoding):
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 1)
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_COUNT", 8)
        for seed in range(5):
            eng = make_engine(fig2_matrix, encoding=encoding)
            pop = eng.initialize(Random(40 + seed))
            transferred = eng.explicit_transfer(pop, 5)
            assert transferred
            for new in transferred:
                assert new.objectives == {TASK_EXP: rescore(eng, TASK_EXP, new.genotype)}

    def test_passed_deadline_starts_no_batch(self, fig2_matrix, monkeypatch):
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 1)
        eng = make_engine(fig2_matrix)
        pop = eng.initialize(Random(42))
        uid = eng._uid
        assert eng.explicit_transfer(pop, 5, lambda: True) == []
        assert eng._uid == uid
        assert eng.explicit_transfer(pop, 5, lambda: False) != []

    def test_stop_ends_the_batch_on_its_kth_check(self, fig2_matrix, monkeypatch):
        # the stop check runs once before each insertion step, and a batch
        # it stops makes no individual
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 1)
        eng = make_engine(fig2_matrix)
        pop = eng.initialize(Random(42))
        steps = len(eng.remaining)
        uid = eng._uid
        for k in range(1, steps + 1):
            stop = StopOnCall(k)
            assert eng.explicit_transfer(pop, 5, stop) == []
            assert stop.calls == k
            assert eng._uid == uid
        stop = StopOnCall(steps + 1)
        assert len(eng.explicit_transfer(pop, 5, stop)) == flowmt.emt._TRANSFER_COUNT
        assert stop.calls == steps

    def test_deadline_inside_the_batch_stops_it(self):
        # five 500x20 patches take about 0.45 s as one batch, and one
        # insertion step about 1 ms; the deadline is checked between steps,
        # so a transfer started 50 ms before it gives up soon after it
        exp = generate_taillard(500, 20, 1539989115)
        config = EngineConfig(population=20, transfer_mode="ri", max_generations=1, rng_seed=1)
        eng = Engine(TaskPair(exp, ImpTsk("lsp", 20)), config)
        pop = eng.initialize(Random(1))
        assert sum(ind.skill == TASK_EAT for ind in pop) >= flowmt.emt._TRANSFER_COUNT
        uid = eng._uid
        start = time.perf_counter()
        deadline = start + 0.05
        assert eng.explicit_transfer(pop, 5, lambda: time.perf_counter() >= deadline) == []
        assert time.perf_counter() - start < 0.15
        assert eng._uid == uid


class TestSelect:
    def _engine(self, fig2_matrix):
        eng = make_engine(fig2_matrix, population=4)
        eng.resolve(Random(24))
        return eng

    def test_rank_one_single_task_gives_full_fitness(self, fig2_matrix):
        eng = self._engine(fig2_matrix)
        pool = [
            Individual(genotype=(), skill=TASK_EAT, objectives={TASK_EAT: 10}, uid=1),
            Individual(genotype=(), skill=TASK_EAT, objectives={TASK_EAT: 20}, uid=2),
            Individual(genotype=(), skill=TASK_EXP, objectives={TASK_EXP: 30}, uid=3),
            Individual(genotype=(), skill=TASK_EXP, objectives={TASK_EXP: 40}, uid=4),
        ]
        survivors = eng.select(list(pool))
        # fitness 1/rank: both rank-1 individuals (uids 1 and 3) come before
        # both rank-2 ones, each pair in objective order
        assert [ind.uid for ind in survivors] == [1, 3, 2, 4]
        assert all(any(ind is kept for ind in pool) for kept in survivors)

    def test_rank_two_single_task(self, fig2_matrix):
        eng = self._engine(fig2_matrix)
        pool = [
            Individual(genotype=(), skill=TASK_EXP, objectives={TASK_EXP: 5}, uid=1),
            Individual(genotype=(), skill=TASK_EXP, objectives={TASK_EXP: 9}, uid=2),
            Individual(genotype=(), skill=TASK_EAT, objectives={TASK_EAT: 1}, uid=3),
            Individual(genotype=(), skill=TASK_EAT, objectives={TASK_EAT: 2}, uid=4),
        ]
        survivors = eng.select(list(pool))
        # uid 2 is second on the expensive task, so it ranks with uid 4 behind
        # the two rank-1 individuals
        assert [ind.uid for ind in survivors] == [3, 1, 4, 2]

    def test_matches_sort_oracle_on_random_pools(self, fig2_matrix):
        eng = make_engine(fig2_matrix, population=6)
        eng.resolve(Random(25))
        rng = Random(26)
        for _ in range(100):
            pool = []
            for uid in range(1, 13):
                objectives = {}
                which = rng.choice([(TASK_EXP,), (TASK_EAT,), (TASK_EXP, TASK_EAT)])
                for task in which:
                    objectives[task] = rng.randint(100, 150)
                pool.append(
                    Individual(genotype=(), skill=which[0], objectives=objectives, uid=uid)
                )
            survivors = eng.select(list(pool))
            # independent re-derivation
            ranks = {}
            for task in (TASK_EXP, TASK_EAT):
                cands = sorted(
                    (ind for ind in pool if task in ind.objectives),
                    key=lambda ind: (ind.objectives[task], ind.uid),
                )
                for rank, ind in enumerate(cands, start=1):
                    ranks.setdefault(ind.uid, {})[task] = rank
            def key(ind):
                best = min((ranks[ind.uid][t], ind.objectives[t]) for t in ind.objectives)
                return (best[0], best[1], ind.uid)
            expected = [ind.uid for ind in sorted(pool, key=key)[:6]]
            assert [ind.uid for ind in survivors] == expected

    def test_underfull_pool_rejected(self, fig2_matrix):
        eng = self._engine(fig2_matrix)
        with pytest.raises(UnderfullPoolError):
            eng.select([Individual(genotype=(), skill=TASK_EXP, objectives={TASK_EXP: 1}, uid=1)])


class TestRun:
    def test_zero_budget_returns_best_initial(self, fig2_matrix):
        pair = make_pair(fig2_matrix)
        config = EngineConfig(population=8, time_budget=0.0, rng_seed=5, ls_intensity=5)
        result = Engine(pair, config).run()
        assert len(result.trace) == 1
        assert result.generations == 0
        assert result.best_makespan == makespan(fig2_matrix, list(result.best_perm))

    def test_generation_limited_run_records_its_stop(self, fig2_matrix):
        result = make_engine(fig2_matrix, max_generations=3).run()
        assert result.stopped_by == "generations"
        assert result.overrun_s == 0.0
        # a budget far beyond the work still stops at the generation limit
        late = make_engine(fig2_matrix, max_generations=2, time_budget=60.0).run()
        assert late.generations == 2
        assert late.stopped_by == "generations"
        assert late.overrun_s == 0.0

    def test_budget_run_records_its_stop_and_overrun(self, fig2_matrix):
        pair = make_pair(fig2_matrix)
        config = EngineConfig(population=8, ls_intensity=5, time_budget=0.2, rng_seed=3)
        result = Engine(pair, config).run()
        assert result.stopped_by == "budget"
        assert result.elapsed_s >= 0.2
        assert result.overrun_s == pytest.approx(result.elapsed_s - 0.2)
        assert 0.0 <= result.overrun_s < 1.0

    def test_run_hands_its_clock_check_to_every_transfer(self, fig2_matrix, monkeypatch):
        # a timed run stops a transfer only through the check it hands over;
        # long before the deadline that check reads false
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 1)
        eng = make_engine(fig2_matrix, time_budget=60.0)
        transfer, stops = eng.explicit_transfer, []

        def record_transfer(population, gen, stop=None):
            stops.append(stop)
            return transfer(population, gen, stop)

        eng.explicit_transfer = record_transfer
        result = eng.run()
        assert result.stopped_by == "generations"
        assert len(stops) == result.generations == 3
        assert all(callable(stop) and stop() is False for stop in stops)

    def test_trace_non_increasing_and_population_constant(self, fig2_matrix, monkeypatch):
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_COUNT", 3)
        eng = make_engine(fig2_matrix, max_generations=6)
        result = eng.run()
        values = [pt.best_makespan for pt in result.trace]
        assert values == sorted(values, reverse=True) or all(
            a >= b for a, b in zip(values, values[1:])
        )
        assert result.generations == 6
        assert len(result.trace) == 7

    def test_deterministic_traces(self, fig2_matrix, monkeypatch):
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_COUNT", 3)
        a = make_engine(fig2_matrix, max_generations=5).run()
        b = make_engine(fig2_matrix, max_generations=5).run()
        assert a.trace == b.trace
        assert a.best_perm == b.best_perm
        # deterministic mode zeroes the wall-clock fields
        assert all(pt.elapsed_s == 0.0 for pt in a.trace)

    def test_best_perm_is_valid_and_consistent(self, fig2_matrix):
        result = make_engine(fig2_matrix, max_generations=4).run()
        assert sorted(result.best_perm) == list(range(1, 11))
        assert makespan(fig2_matrix, list(result.best_perm)) == result.best_makespan

    @pytest.mark.parametrize("encoding", ["realkey", "perm"])
    @pytest.mark.parametrize("mode", ["ik", "ri"])
    def test_trace_is_best_seen_so_far(self, encoding, mode, monkeypatch):
        # every expensive-task objective the run stores is set by initialize,
        # improve or explicit_transfer; record each with its generation, uid
        # and sequence, and check the trace and the result against the
        # first-seen minimum. Initialization is generation 0; an offspring's
        # generation is one more than the selections done before it.
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 2)
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_COUNT", 3)
        exp = generate_taillard(20, 5, 873654221)
        config = EngineConfig(
            population=10, ls_intensity=3, encoding=encoding, transfer_mode=mode,
            max_generations=12, rng_seed=4,
        )
        eng = Engine(TaskPair(exp, ImpTsk("lsp", 20)), config)
        seen = []  # (objective, generation, uid, sequence)
        patched = []
        selections = 0

        def record(inds, generation):
            seen.extend(
                (ind.objectives[TASK_EXP], generation, ind.uid,
                 tuple(eng.decode_task(TASK_EXP, ind.genotype)))
                for ind in inds
                if TASK_EXP in ind.objectives
            )
            return inds

        def record_improve(kids, fulls, rows):
            improve(kids, fulls, rows)
            record(kids, selections + 1)

        def record_transfer(*args):
            out = record(transfer(*args), selections + 1)
            patched.extend(out)
            return out

        def count_select(pool):
            nonlocal selections
            selections += 1
            return select(pool)

        initialize, improve, transfer = eng.initialize, eng.improve, eng.explicit_transfer
        select = eng.select
        eng.initialize = lambda rng: record(initialize(rng), 0)
        eng.improve, eng.explicit_transfer = record_improve, record_transfer
        eng.select = count_select
        result = eng.run()

        assert selections == config.max_generations
        assert len(result.trace) == config.max_generations + 1
        for point in result.trace:
            assert point.best_makespan == min(v for v, g, _, _ in seen if g <= point.generation)
        assert result.trace[-1].best_makespan < result.trace[0].best_makespan
        assert result.best_makespan == result.trace[-1].best_makespan
        assert result.best_perm == min(seen)[3]
        assert bool(patched) == (mode == "ri")
        if encoding == "perm":
            assert makespan(exp.matrix, list(result.best_perm)) == result.best_makespan

    @pytest.mark.parametrize("encoding", ["realkey", "perm"])
    def test_uids_follow_creation_order(self, encoding, monkeypatch):
        # the rank order breaks objective ties by uid, which must mean "made
        # first": uids rise in creation order, and every uid of a generation,
        # offspring and patched individuals alike, exceeds all earlier ones
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 2)
        exp = generate_taillard(20, 5, 873654221)
        config = EngineConfig(
            population=10, ls_intensity=3, encoding=encoding, transfer_mode="ri",
            max_generations=6, rng_seed=4,
        )
        eng = Engine(TaskPair(exp, ImpTsk("lsp", 20)), config)
        made = []  # (generation, uid) in creation order
        patched = []
        generation = 0
        initialize, mate, transfer = eng.initialize, eng.mate, eng.explicit_transfer

        def record_initialize(rng):
            pop = initialize(rng)
            made.extend((0, ind.uid) for ind in pop)
            return pop

        def record_mate(pa, pb, rng):
            kids = mate(pa, pb, rng)
            made.extend((generation + 1, kid.uid) for kid in kids)
            return kids

        def record_transfer(population, gen, stop=None):
            nonlocal generation
            assert gen == generation + 1
            out = transfer(population, gen, stop)
            made.extend((gen, ind.uid) for ind in out)
            patched.extend(out)
            generation = gen  # the transfer is the last step to create individuals
            return out

        eng.initialize, eng.mate, eng.explicit_transfer = (
            record_initialize, record_mate, record_transfer
        )
        eng.run()

        assert generation == config.max_generations
        assert len(patched) > 0
        uids = [uid for _, uid in made]
        assert all(a < b for a, b in zip(uids, uids[1:]))
        for gen in range(1, config.max_generations + 1):
            newest_before = max(uid for g, uid in made if g < gen)
            assert min(uid for g, uid in made if g == gen) > newest_before

    def test_permutation_encoding_run(self, fig2_matrix):
        result = make_engine(fig2_matrix, encoding="perm", max_generations=4).run()
        assert sorted(result.best_perm) == list(range(1, 11))

    @pytest.mark.parametrize("encoding", ["perm", "realkey"])
    def test_one_job_run(self, encoding):
        inst = Instance(random_matrix(Random(29), 1, 2), name="one")
        config = EngineConfig(encoding=encoding, population=4, ls_intensity=3, max_generations=2)
        result = Engine(TaskPair(inst, RndTsk(1, inst)), config).run()
        assert result.best_perm == (1,)
        assert result.best_makespan == sum(inst.matrix.rows()[0])

    def test_rndtsk2_ik_run(self, fig2_matrix):
        rng = Random(27)
        aux = Instance(random_matrix(rng, 5, 5), name="aux")
        pair = TaskPair(Instance(fig2_matrix, name="fig2"), RndTsk(2, aux))
        config = EngineConfig(
            population=8, ls_intensity=5, transfer_mode="ik", max_generations=3, rng_seed=1
        )
        result = Engine(pair, config).run()
        assert sorted(result.best_perm) == list(range(1, 11))

    def test_rndtsk3_ik_run_truncates_decode(self, fig2_matrix):
        rng = Random(28)
        aux = Instance(random_matrix(rng, 14, 5), name="aux")
        pair = TaskPair(Instance(fig2_matrix, name="fig2"), RndTsk(3, aux))
        config = EngineConfig(
            population=8, ls_intensity=5, transfer_mode="ik", max_generations=3, rng_seed=2
        )
        result = Engine(pair, config).run()
        assert sorted(result.best_perm) == list(range(1, 11))

    def test_reused_pair_runs_like_a_fresh_one(self):
        ta001 = generate_taillard(20, 5, 873654221)
        shared = TaskPair(ta001, ImpTsk("rnd", 30))
        for seed in (1, 2):
            config = EngineConfig(population=20, ls_intensity=10, max_generations=5, rng_seed=seed)
            reused = Engine(shared, config).run()
            fresh = Engine(TaskPair(ta001, ImpTsk("rnd", 30)), config).run()
            assert reused.best_perm == fresh.best_perm
            assert reused.trace == fresh.trace

    def test_wall_clock_budget_holds_within_a_generation(self, monkeypatch):
        # a generation here takes about 0.3 s and one RI patch about 30 ms on
        # two shared cores; the budget is checked between mating pairs and
        # between patches, so the run ends near its 0.3 s budget
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 1)
        exp = generate_taillard(100, 20, 1539989115)
        config = EngineConfig(transfer_mode="ri", time_budget=0.3, rng_seed=1)
        t0 = time.perf_counter()
        result = Engine(TaskPair(exp, ImpTsk("lsp", 20)), config).run()
        assert time.perf_counter() - t0 < 2.0
        assert result.trace[-1].generation == result.generations
        assert result.best_makespan == makespan(exp.matrix, list(result.best_perm))

    def test_wall_clock_budget_holds_within_a_long_generation(self, monkeypatch):
        # with 2000 INSERT moves a 100-job walk is 200100 16-bit cells (400 KB)
        # and 4002000 completion-table cells, so an expensive-task batch
        # reaches the 2^23-cell cap at its third walk and is scored then:
        # about 9 ms to draw and 16 ms to score a walk on two shared cores,
        # 50 ms a mating pair. A generation of 100 kids takes about 2 s, so a
        # deadline checked only between generations would overrun the 2 s
        # bound, and walks scored only at the end of a generation would
        # overrun the deadline by about the budget itself (0.31-0.37 s measured)
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 1)
        exp = generate_taillard(100, 20, 1539989115)
        config = EngineConfig(
            transfer_mode="ri", ls_intensity=2000, time_budget=0.3, rng_seed=1
        )
        t0 = time.perf_counter()
        result = Engine(TaskPair(exp, ImpTsk("lsp", 20)), config).run()
        assert time.perf_counter() - t0 < 2.0
        assert result.trace[-1].generation == result.generations
        assert result.stopped_by == "budget"
        assert result.overrun_s < 0.2

    def test_default_100x20_generation_packs_walks_in_16_bits(self, monkeypatch):
        # job numbers up to 100 fit in 16 bits, so each task's walk batch is
        # packed in 2-byte cells, half the bytes of int32 ones
        itemsizes = []
        real = flowmt.emt._walk_minima

        def record(p, rows, walks, length):
            itemsizes.append(rows.itemsize)
            return real(p, rows, walks, length)

        monkeypatch.setattr(flowmt.emt, "_walk_minima", record)
        exp = generate_taillard(100, 20, 1539989115)
        config = EngineConfig(max_generations=1, rng_seed=1)
        Engine(TaskPair(exp, ImpTsk("lsp", 20)), config).run()
        assert itemsizes == [2, 2]

    def test_walk_batches_straddling_the_cap_score_every_kid(self, monkeypatch):
        # 50 jobs, 5 machines and 1000 moves: an expensive-task walk fills
        # 250250 completion-table cells, so under a cap of 2^19 a batch reaches
        # it partway through its third walk, and a 10-job auxiliary walk
        # (50050 cells) partway through its eleventh
        monkeypatch.setattr(flowmt.emt, "_WALK_BATCH_CELLS", 1 << 19)
        exp = generate_taillard(50, 5, 1958948863)
        config = EngineConfig(
            population=30, ls_intensity=1000, encoding="perm", transfer_mode="ik",
            max_generations=2, rng_seed=3,
        )

        def traced_run():
            """The run, its (task, kids, cells) batches, and for each call
            to select the offspring's uids and stored objectives."""
            eng = Engine(TaskPair(exp, ImpTsk("lsp", 20)), config)
            improve, select = eng.improve, eng.select
            batches, offspring = [], []

            def record_improve(kids, fulls, rows):
                batches.append((kids[0].skill, len(kids), len(rows) * exp.m))
                improve(kids, fulls, rows)

            def record_select(pool):
                kids = pool[config.population:]
                for kid in kids:
                    assert kid.objectives[kid.skill] == rescore(eng, kid.skill, kid.genotype)
                offspring.append([(kid.uid, dict(kid.objectives)) for kid in kids])
                return select(pool)

            eng.improve, eng.select = record_improve, record_select
            return eng.run(), batches, offspring

        result, batches, offspring = traced_run()
        cap = flowmt.emt._WALK_BATCH_CELLS
        assert {task for task, _, cells in batches if cells >= cap} == {TASK_EXP, TASK_EAT}
        assert len(batches) > 2 * config.max_generations
        assert sum(kids for _, kids, _ in batches) == config.population * config.max_generations
        assert len(offspring) == config.max_generations
        for kids in offspring:
            assert len(kids) == config.population
            uids = [uid for uid, _ in kids]
            assert uids == sorted(uids)

        # scoring every walk alone gives the same run
        monkeypatch.setattr(flowmt.emt, "_WALK_BATCH_CELLS", 1)
        alone, alone_batches, alone_offspring = traced_run()
        assert all(kids == 1 for _, kids, _ in alone_batches)
        assert alone_offspring == offspring
        assert alone.best_perm == result.best_perm
        assert alone.trace == result.trace

    def test_a_default_100x20_generation_scores_each_task_in_one_batch(self):
        exp = generate_taillard(100, 20, 1539989115)
        eng = Engine(TaskPair(exp, ImpTsk("lsp", 20)), EngineConfig(max_generations=1, rng_seed=1))
        improve = eng.improve
        batches = []

        def record_improve(kids, *batch):
            batches.append(kids[0].skill)
            improve(kids, *batch)

        eng.improve = record_improve
        eng.run()
        assert sorted(batches) == [TASK_EAT, TASK_EXP]

    def test_each_genotype_is_decoded_once(self, monkeypatch):
        # wrapped before the engine is built, as the benchmark's tracer does:
        # initialization decodes each individual once for both tasks, each
        # offspring is decoded once for its walk and its re-encoding, each
        # donor once for its patch (one patched offspring each), and the
        # champion once for the result
        real = flowmt.emt.rov_decode
        decodes = []
        monkeypatch.setattr(flowmt.emt, "rov_decode", lambda x: decodes.append(1) or real(x))
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 2)
        exp = generate_taillard(20, 5, 873654221)
        config = EngineConfig(
            population=10, ls_intensity=3, transfer_mode="ri", max_generations=4, rng_seed=4
        )
        eng = Engine(TaskPair(exp, ImpTsk("lsp", 20)), config)
        mate, transfer = eng.mate, eng.explicit_transfer
        offspring, patched = [], []

        def record(made, out):
            made.extend(out)
            return out

        eng.mate = lambda *args: record(offspring, mate(*args))
        eng.explicit_transfer = lambda *args: record(patched, transfer(*args))
        eng.run()
        assert any(kid.skill == TASK_EAT for kid in offspring)
        assert len(patched) > 0
        assert len(decodes) == config.population + len(offspring) + len(patched) + 1

    @pytest.mark.parametrize("ls", [0, 5])
    def test_each_offspring_is_evaluated_once(self, fig2_matrix, monkeypatch, ls):
        # count every sequence scored in a batch plus any scalar evaluation,
        # wherever the engine or the search module binds an evaluator
        calls = []
        for module in (flowmt.emt, flowmt.search):
            if hasattr(module, "_makespans"):
                real = module._makespans
                monkeypatch.setattr(
                    module,
                    "_makespans",
                    lambda p, seqs, real=real: calls.extend([1] * len(seqs)) or real(p, seqs),
                )
            if hasattr(module, "_makespan_unchecked"):
                real = module._makespan_unchecked
                monkeypatch.setattr(
                    module,
                    "_makespan_unchecked",
                    lambda *args, real=real: calls.append(1) or real(*args),
                )
        pop, gens = 8, 3
        make_engine(
            fig2_matrix, encoding="perm", transfer_mode="ik", ls_intensity=ls,
            population=pop, max_generations=gens,
        ).run()
        # initialization scores everyone on both tasks; then each offspring
        # costs only its INSERT walk (start plus ls moves), which sets its score
        assert len(calls) == 2 * pop + gens * pop * (ls + 1)

    def test_wall_clock_budget_terminates(self, fig2_matrix):
        pair = make_pair(fig2_matrix)
        config = EngineConfig(population=8, ls_intensity=5, time_budget=0.3, rng_seed=3)
        result = Engine(pair, config).run()
        assert result.elapsed_s >= 0.3
        assert result.trace[-1].elapsed_s > 0.0


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: RndTsk(4, generate_taillard(5, 2, 1)),
         "random-pairing kind must be 1, 2 or 3, got 4"),
        (lambda: EngineConfig(encoding="keys", max_generations=1), "unknown encoding 'keys'"),
        (lambda: EngineConfig(transfer_mode="xx", max_generations=1),
         "unknown transfer mode 'xx'"),
    ],
    ids=["rndtsk4", "encoding", "transfer-mode"],
)
def test_unknown_kind_or_mode_rejected(make, message):
    with pytest.raises(ConfigError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "make",
    [
        lambda: ProblemMatrix(FIG2_TIMES),
        lambda: Instance(ProblemMatrix(FIG2_TIMES), name="fig2"),
        lambda: build_eat(ProblemMatrix(FIG2_TIMES), "lsp", 40),
        lambda: TaskPair(Instance(ProblemMatrix(FIG2_TIMES)), ImpTsk("lsp", 40)),
        lambda: RndTsk(2, generate_taillard(5, 5, 1)),
    ],
    ids=["ProblemMatrix", "Instance", "EatSpec", "TaskPair", "RndTsk"],
)
def test_equal_objects_compare_by_identity(make):
    a, b = make(), make()
    assert (a == b) is False
    assert a == a


def test_random_pairing_is_hashable():
    pairing = RndTsk(2, generate_taillard(5, 5, 1))
    assert {pairing: 1}[pairing] == 1  # hashed by identity
