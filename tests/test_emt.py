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
    run,
)
from flowmt.errors import ConfigError, UnderfullPoolError
from flowmt.instance import Instance, generate_taillard, makespan
from flowmt.transfer import project_to_eat, rov_decode

from conftest import random_matrix


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
            order = sorted(pop, key=lambda ind: (ind.objectives[task], ind.birth, ind.uid))
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


class TestImprove:
    def test_zero_intensity_leaves_genotype(self, fig2_matrix):
        eng = make_engine(fig2_matrix, ls_intensity=0)
        pop = eng.initialize(Random(7))
        ind = pop[0]
        before = ind.genotype
        eng.improve([ind], eng.draw(ind, Random(8)))
        assert ind.genotype == before

    def test_alignment_contract(self, fig2_matrix):
        eng = make_engine(fig2_matrix)
        pop = eng.initialize(Random(9))
        rng = Random(10)
        for ind in pop:
            eng.improve([ind], eng.draw(ind, rng))
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
                eng.improve([kid], eng.draw(kid, rng))
                assert kid.objectives[kid.skill] <= before

    def test_eat_improve_keeps_noncritical_positions(self, fig2_matrix):
        eng = make_engine(fig2_matrix, ls_intensity=50)
        eng.resolve(Random(13))
        genotype = tuple(Random(14).random() for _ in range(10))
        ind = Individual(genotype=genotype, skill=TASK_EAT, uid=eng._next_uid())
        ind.objectives[TASK_EAT] = rescore(eng, TASK_EAT, genotype)
        before_full = rov_decode(genotype)
        eng.improve([ind], eng.draw(ind, Random(15)))
        after_full = rov_decode(ind.genotype)
        critical = eng.aux.S
        for pos, (a, b) in enumerate(zip(before_full, after_full)):
            if a not in critical:
                assert a == b, f"non-critical job moved at position {pos}"


class TestExplicitTransfer:
    def test_period_gate(self, fig2_matrix, monkeypatch):
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 5)
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_COUNT", 3)
        eng = make_engine(fig2_matrix)
        pop = eng.initialize(Random(16))
        assert eng.explicit_transfer(pop, 3, Random(17)) == []
        assert eng.explicit_transfer(pop, 5, Random(17)) != []

    def test_no_donors_gives_empty(self, fig2_matrix, monkeypatch):
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 1)
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_COUNT", 3)
        eng = make_engine(fig2_matrix)
        pop = eng.initialize(Random(18))
        only_exp = [ind for ind in pop if ind.skill == TASK_EXP]
        assert eng.explicit_transfer(only_exp, 5, Random(19)) == []

    def test_ik_mode_never_transfers(self, fig2_matrix):
        eng = make_engine(fig2_matrix, transfer_mode="ik")
        pop = eng.initialize(Random(20))
        assert eng.explicit_transfer(pop, 5, Random(21)) == []

    def test_skeleton_preservation(self, fig2_matrix, monkeypatch):
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 1)
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_COUNT", 8)
        eng = make_engine(fig2_matrix)
        pop = eng.initialize(Random(22))
        donors = sorted(
            (ind for ind in pop if ind.skill == TASK_EAT),
            key=lambda ind: (ind.objectives[TASK_EAT], ind.uid),
        )
        transferred = eng.explicit_transfer(pop, 5, Random(23))
        assert len(transferred) == min(len(donors), 8)
        critical = eng.aux.S
        for donor, new in zip(donors, transferred):
            assert new.skill == TASK_EXP
            full = rov_decode(new.genotype)
            assert sorted(full) == list(range(1, 11))
            assert project_to_eat(full, critical) == eng.decode_task(TASK_EAT, donor.genotype)
            assert new.objectives[TASK_EXP] == makespan(fig2_matrix, full)


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
        eng.select(list(pool))
        assert pool[0].fitness == 1.0
        assert pool[2].fitness == 1.0
        assert pool[1].fitness == 0.5
        assert pool[3].fitness == 0.5

    def test_rank_two_single_task(self, fig2_matrix):
        eng = self._engine(fig2_matrix)
        pool = [
            Individual(genotype=(), skill=TASK_EXP, objectives={TASK_EXP: 5}, uid=1),
            Individual(genotype=(), skill=TASK_EXP, objectives={TASK_EXP: 9}, uid=2),
            Individual(genotype=(), skill=TASK_EAT, objectives={TASK_EAT: 1}, uid=3),
            Individual(genotype=(), skill=TASK_EAT, objectives={TASK_EAT: 2}, uid=4),
        ]
        eng.select(list(pool))
        assert pool[1].fitness == 0.5

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
                    Individual(
                        genotype=(),
                        skill=which[0],
                        objectives=objectives,
                        birth=rng.randint(0, 3),
                        uid=uid,
                    )
                )
            survivors = eng.select(list(pool))
            # independent re-derivation
            ranks = {}
            for task in (TASK_EXP, TASK_EAT):
                cands = sorted(
                    (ind for ind in pool if task in ind.objectives),
                    key=lambda ind: (ind.objectives[task], ind.birth, ind.uid),
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
        result = run(pair, config)
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
        result = run(pair, config)
        assert result.stopped_by == "budget"
        assert result.elapsed_s >= 0.2
        assert result.overrun_s == pytest.approx(result.elapsed_s - 0.2)
        assert 0.0 <= result.overrun_s < 1.0

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
        # improve or explicit_transfer; record each with its birth, uid and
        # sequence, and check the trace and the result against the first-seen
        # minimum
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 2)
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_COUNT", 3)
        exp = generate_taillard(20, 5, 873654221)
        config = EngineConfig(
            population=10, ls_intensity=3, encoding=encoding, transfer_mode=mode,
            max_generations=12, rng_seed=4,
        )
        eng = Engine(TaskPair(exp, ImpTsk("lsp", 20)), config)
        seen = []  # (objective, birth, uid, sequence)
        patched = []

        def record(inds):
            seen.extend(
                (ind.objectives[TASK_EXP], ind.birth, ind.uid,
                 tuple(eng.decode_task(TASK_EXP, ind.genotype)))
                for ind in inds
                if TASK_EXP in ind.objectives
            )
            return inds

        def record_improve(kids, rows):
            improve(kids, rows)
            record(kids)

        def record_transfer(*args):
            out = record(transfer(*args))
            patched.extend(out)
            return out

        initialize, improve, transfer = eng.initialize, eng.improve, eng.explicit_transfer
        eng.initialize = lambda rng: record(initialize(rng))
        eng.improve, eng.explicit_transfer = record_improve, record_transfer
        result = eng.run()

        assert len(result.trace) == config.max_generations + 1
        for point in result.trace:
            assert point.best_makespan == min(v for v, birth, _, _ in seen if birth <= point.generation)
        assert result.trace[-1].best_makespan < result.trace[0].best_makespan
        assert result.best_makespan == result.trace[-1].best_makespan
        assert result.best_perm == min(seen)[3]
        assert bool(patched) == (mode == "ri")
        if encoding == "perm":
            assert makespan(exp.matrix, list(result.best_perm)) == result.best_makespan

    def test_permutation_encoding_run(self, fig2_matrix):
        result = make_engine(fig2_matrix, encoding="perm", max_generations=4).run()
        assert sorted(result.best_perm) == list(range(1, 11))

    def test_rndtsk2_ik_run(self, fig2_matrix):
        rng = Random(27)
        aux = Instance(random_matrix(rng, 5, 5), name="aux")
        pair = TaskPair(Instance(fig2_matrix, name="fig2"), RndTsk(2, aux))
        config = EngineConfig(
            population=8, ls_intensity=5, transfer_mode="ik", max_generations=3, rng_seed=1
        )
        result = run(pair, config)
        assert sorted(result.best_perm) == list(range(1, 11))

    def test_rndtsk3_ik_run_truncates_decode(self, fig2_matrix):
        rng = Random(28)
        aux = Instance(random_matrix(rng, 14, 5), name="aux")
        pair = TaskPair(Instance(fig2_matrix, name="fig2"), RndTsk(3, aux))
        config = EngineConfig(
            population=8, ls_intensity=5, transfer_mode="ik", max_generations=3, rng_seed=2
        )
        result = run(pair, config)
        assert sorted(result.best_perm) == list(range(1, 11))

    def test_reused_pair_runs_like_a_fresh_one(self):
        ta001 = generate_taillard(20, 5, 873654221)
        shared = TaskPair(ta001, ImpTsk("rnd", 30))
        for seed in (1, 2):
            config = EngineConfig(population=20, ls_intensity=10, max_generations=5, rng_seed=seed)
            reused = run(shared, config)
            fresh = run(TaskPair(ta001, ImpTsk("rnd", 30)), config)
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
        result = run(TaskPair(exp, ImpTsk("lsp", 20)), config)
        assert time.perf_counter() - t0 < 2.0
        assert result.trace[-1].generation == result.generations
        assert result.best_makespan == makespan(exp.matrix, list(result.best_perm))

    def test_wall_clock_budget_holds_within_a_long_generation(self, monkeypatch):
        # with 2000 INSERT moves a 100-job walk is 200100 int32 cells (800 KB),
        # past the batch cap, so it is scored alone as soon as it is drawn:
        # about 9 ms to draw and 16 ms to score on two shared cores, 50 ms a
        # mating pair. A generation of 100 kids takes about 2 s, so a deadline
        # checked only between generations would overrun the 2 s bound, and
        # walks scored only at the end of a generation would overrun the
        # deadline by about the budget itself (0.31-0.37 s measured)
        monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 1)
        exp = generate_taillard(100, 20, 1539989115)
        config = EngineConfig(
            transfer_mode="ri", ls_intensity=2000, time_budget=0.3, rng_seed=1
        )
        t0 = time.perf_counter()
        result = run(TaskPair(exp, ImpTsk("lsp", 20)), config)
        assert time.perf_counter() - t0 < 2.0
        assert result.trace[-1].generation == result.generations
        assert result.stopped_by == "budget"
        assert result.overrun_s < 0.2

    def test_walk_batches_straddling_the_cap_score_every_kid(self, monkeypatch):
        # 50 jobs and 1000 moves: an expensive-task walk is 50050 int32 cells,
        # so a batch reaches the cap partway through its third walk, and a
        # 10-job auxiliary walk (10010 cells) partway through its fourteenth
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

            def record_improve(kids, rows):
                batches.append((kids[0].skill, len(kids), len(rows)))
                improve(kids, rows)

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
        result = run(pair, config)
        assert result.elapsed_s >= 0.3
        assert result.trace[-1].elapsed_s > 0.0
