"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` (or `-rA`) to see the
per-criterion lines. The wall-clock-budget comparison (criterion 9) runs one
hundred 0.6-second engine runs and dominates the suite's runtime.
"""

import itertools
import statistics
import time
from random import Random

import flowmt.emt
from flowmt.auxiliary import MEASURES, build_eat, critical_count, importance_scores
from flowmt.distance import cos_theta_lower_bound, itdm, zero_pad
from flowmt.emt import (
    TASK_EAT,
    TASK_EXP,
    Engine,
    EngineConfig,
    ImpTsk,
    RndTsk,
    TaskPair,
)
from flowmt.harness import CampaignConfig, distance_sweep, relative_error, run_campaign
from flowmt.instance import Instance, ProblemMatrix, makespan, write_instance
from flowmt.search import _walk_batch, solve_eat
from flowmt.transfer import patch, perm_to_vector, project_to_eat, rov_decode

from conftest import FIG2_LSP, FIG2_RANKING, FIG2_TIMES, random_matrix
from oracles import brute_force_optimum, dp_makespan, fit_scale_shift_numeric


def _report(criterion: int, detail: str) -> None:
    print(f"[acceptance] C{criterion} PASS: {detail}")


def _timed_min(fn, repeats: int = 5) -> float:
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def test_c01_worked_example_scores_and_eat(fig2_matrix):
    def criterion():
        scores, ranking = importance_scores(fig2_matrix, "lsp")
        for job, expected in FIG2_LSP.items():
            assert scores[job - 1] == expected
        assert ranking == FIG2_RANKING
        assert ranking[:4] == [4, 9, 5, 7]
        eat = build_eat(fig2_matrix, "lsp", 40)
        assert set(eat.selected) == {4, 5, 7, 9}
        assert eat.g == 4
        for row, job in zip(eat.submatrix.rows(), eat.selected):
            assert row == FIG2_TIMES[job - 1]

    criterion()  # correctness (and warm-up for the timing below)
    elapsed = _timed_min(criterion)
    assert elapsed < 1e-3
    _report(1, f"scores, ranking and 40% selection exact in {elapsed * 1e6:.0f} us")


def test_c02_first_insertion_choice(fig2_matrix):
    skeleton = [5, 9, 4, 7]
    remaining = [2, 8, 10, 6, 1, 3]
    candidates = [skeleton[:pos] + [2] + skeleton[pos:] for pos in range(5)]
    values = [makespan(fig2_matrix, cand) for cand in candidates]
    assert candidates[values.index(min(values))] == [5, 9, 4, 2, 7]

    result = {}

    def criterion():
        result["full"] = patch("ri", skeleton, remaining, fig2_matrix)

    criterion()
    assert project_to_eat(result["full"], {5, 9, 4, 7, 2}) == [5, 9, 4, 2, 7]
    elapsed = _timed_min(criterion)
    assert elapsed < 1e-3
    _report(2, f"step one picks [5,9,4,2,7]; full patch in {elapsed * 1e6:.0f} us")


def test_c03_encoding_worked_examples():
    x = [0.61, 0.65, 0.01, 0.86, 0.97, 0.69, 0.99, 0.63, 0.78, 0.29]
    pi = rov_decode(x)
    assert pi == [3, 5, 1, 8, 9, 6, 10, 4, 7, 2]
    assert project_to_eat(pi, {4, 5, 7, 9}) == [5, 9, 4, 7]
    improved = [1, 3, 5, 8, 9, 6, 10, 4, 7, 2]
    x_ls = perm_to_vector(x, improved)
    assert x_ls == [0.01, 0.61, 0.65, 0.86, 0.97, 0.69, 0.99, 0.63, 0.78, 0.29]
    assert rov_decode(x_ls) == improved
    _report(3, "decode, projection and re-encoding match the worked example")


def test_c04_distance_identities():
    t0 = time.perf_counter()
    rng = Random(40401)
    for _ in range(100):
        p = random_matrix(rng, 10, 5)
        assert itdm(p, p).d <= 1e-9
        for t in (2, 10):
            for b in (0, 7):
                q = ProblemMatrix(t * p.p + b)
                res = itdm(q, p)
                assert res.d <= 1e-9
        anti = ProblemMatrix(int(p.p.max()) + 1 - p.p)
        res = itdm(anti, p)
        assert res.d == 1.0
        assert res.t_star == 0.0
        q = random_matrix(rng, 10, 5)
        res = itdm(q, p)
        t_ref, b_ref = fit_scale_shift_numeric(q.p, p.p)
        assert abs(res.t_star - t_ref) < 1e-4
        assert abs(res.b_star - b_ref) < 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(4, f"identities and closed-form fit verified on 100 matrices in {elapsed:.2f}s")


def test_c05_bound_soundness_and_lsp_optimality():
    t0 = time.perf_counter()
    rng = Random(50501)
    trials = 0
    for _ in range(100):
        mat = random_matrix(rng, 20, 5)
        _, ranking = importance_scores(mat, "lsp")
        for ratio in range(10, 100, 10):
            selected = ranking[: critical_count(20, ratio)]
            res = itdm(zero_pad(mat, selected), mat)
            bound = cos_theta_lower_bound(mat, selected)
            assert res.cos_theta >= bound - 1e-12
            trials += 1
    for _ in range(50):
        mat = random_matrix(rng, 10, 5)
        scores, _ = importance_scores(mat, "lsp")
        for k, g in ((20, 2), (30, 3), (40, 4)):
            eat = build_eat(mat, "lsp", k)
            assert eat.g == g
            q_sq = float((eat.submatrix.p.astype(float) ** 2).sum())
            best = max(
                sum(scores[j - 1] for j in subset)
                for subset in itertools.combinations(range(1, 11), g)
            )
            assert abs(q_sq - best) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(5, f"cosine floor held on {trials} trials; subset enumeration agrees ({elapsed:.1f}s)")


def test_c06_lsp_closest_at_every_ratio():
    t0 = time.perf_counter()
    rng = Random(60601)
    instances = [Instance(random_matrix(rng, 20, 10), name=f"r{i}") for i in range(30)]
    ratios = list(range(10, 100, 10))
    rows = distance_sweep(instances, list(MEASURES), ratios, seed=606)
    sums: dict = {}
    for _name, measure, ratio, d, _cos, _bound in rows:
        key = (measure, ratio)
        sums[key] = sums.get(key, 0.0) + d
    for ratio in ratios:
        lsp_mean = sums[("lsp", ratio)] / 30
        for measure in MEASURES:
            assert lsp_mean <= sums[(measure, ratio)] / 30 + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, f"lsp mean distance lowest at all 9 ratios over 30 instances ({elapsed:.1f}s)")


def test_c07_recursive_insertion_patches_best():
    t0 = time.perf_counter()
    rng = Random(70701)
    strategies = ("ri", "ei", "oi", "ai")
    errors: dict = {s: [] for s in strategies}
    for idx in range(20):
        mat = random_matrix(rng, 20, 5)
        for k in (20, 30):
            eat = build_eat(mat, "lsp", k)
            sub_perm = solve_eat(eat.submatrix, 10000, Random(700 + idx))
            pi_eat = [eat.selected[j - 1] for j in sub_perm]
            cell = {}
            for strategy in strategies:
                full = patch(strategy, pi_eat, list(eat.remaining), mat, Random(800 + idx))
                cell[strategy] = makespan(mat, full)
            reference = min(cell.values())
            for strategy in strategies:
                errors[strategy].append(relative_error(cell[strategy], reference))
    means = {s: statistics.mean(errors[s]) for s in strategies}
    assert means["ri"] < means["ei"]
    assert means["ri"] < means["oi"]
    assert means["ri"] < means["ai"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        7,
        "mean patched error ri={ri:.3f} < ei={ei:.3f}, oi={oi:.3f}, ai={ai:.3f} "
        "({t:.1f}s)".format(t=elapsed, **means),
    )


def test_c08_makespan_oracle_and_engine_optimum():
    t0 = time.perf_counter()
    rng = Random(80801)
    for _ in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(1, 6)
        mat = random_matrix(rng, n, m)
        size = rng.randint(1, n)
        perm = rng.sample(range(1, n + 1), size)
        assert makespan(mat, perm) == dp_makespan(mat.rows(), perm)

    hits = 0
    for inst_seed in (501, 502):
        irng = Random(inst_seed)
        mat = random_matrix(irng, 8, 4)
        optimum, _ = brute_force_optimum(mat.rows())
        exp = Instance(mat, name=f"i{inst_seed}")
        for seed in range(5):
            config = EngineConfig(
                population=40,
                ls_intensity=60,
                transfer_mode="ri",
                max_generations=60,
                rng_seed=seed,
            )
            result = Engine(TaskPair(exp, ImpTsk("lsp", 50)), config).run()
            assert result.best_makespan >= optimum
            hits += result.best_makespan == optimum
    elapsed = time.perf_counter() - t0
    assert hits >= 8
    assert elapsed < 300.0
    _report(8, f"200 oracle matches; engine hit the optimum in {hits}/10 runs ({elapsed:.1f}s)")


def test_c09_transfer_beats_random_pairing_at_desk_scale():
    # A 0.6-second budget (factor 0.003 on 20x10) needs a desk-scale
    # population so that dozens of generations, and therefore several
    # transfer events, fit inside every run.
    t0 = time.perf_counter()
    budget = 0.003 * 20 * 10  # seconds per run
    seeds = range(5)
    per_instance: list = []
    for idx in range(10):
        irng = Random(9100 + idx)
        mat = random_matrix(irng, 20, 10)
        exp = Instance(mat, name=f"dsk{idx}")
        aux = Instance(random_matrix(irng, 10, 10), name=f"aux{idx}")
        arms = {
            "ri": (TaskPair(exp, ImpTsk("lsp", 20)), "ri"),
            "ik": (TaskPair(exp, RndTsk(2, aux)), "ik"),
        }
        runs: dict = {"ri": [], "ik": []}
        for arm, (pair_proto, mode) in arms.items():
            for seed in seeds:
                pair = TaskPair(pair_proto.exp, pair_proto.pairing)
                config = EngineConfig(
                    population=30,
                    ls_intensity=15,
                    transfer_mode=mode,
                    time_budget=budget,
                    rng_seed=seed,
                )
                runs[arm].append(Engine(pair, config).run())
        per_instance.append(runs)

    # ARE comparison against each instance's best observed makespan
    errors = {"ri": [], "ik": []}
    for runs in per_instance:
        best_seen = min(r.best_makespan for arm in runs.values() for r in arm)
        for arm, results in runs.items():
            errors[arm].extend(relative_error(r.best_makespan, best_seen) for r in results)
    are_ri = statistics.mean(errors["ri"])
    are_ik = statistics.mean(errors["ik"])
    assert are_ri < are_ik

    # convergence: time for the transfer arm to reach the other arm's final value
    fast = 0
    for runs in per_instance:
        ik_final = statistics.mean(r.best_makespan for r in runs["ik"])
        ik_elapsed = statistics.mean(r.elapsed_s for r in runs["ik"])
        hit_times = []
        for r in runs["ri"]:
            hit = next(
                (pt.elapsed_s for pt in r.trace if pt.best_makespan <= ik_final), budget
            )
            hit_times.append(hit)
        if statistics.mean(hit_times) <= 0.5 * ik_elapsed:
            fast += 1
    assert fast >= 6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1200.0
    _report(
        9,
        f"mean ARE {are_ri:.2f} (transfer) vs {are_ik:.2f} (random pairing); "
        f"half-time convergence on {fast}/10 instances ({elapsed / 60:.1f} min)",
    )


def test_c10_engine_invariants(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    rng = Random(101010)
    mat = random_matrix(rng, 12, 5)
    exp = Instance(mat, name="inv")

    # best-ever trace never increases, across encodings and transfer modes
    monkeypatch.setattr(flowmt.emt, "_TRANSFER_COUNT", 3)
    for encoding in ("realkey", "perm"):
        for mode in ("ik", "ri"):
            config = EngineConfig(
                population=12,
                ls_intensity=10,
                encoding=encoding,
                transfer_mode=mode,
                max_generations=8,
                rng_seed=3,
            )
            result = Engine(TaskPair(exp, ImpTsk("lsp", 30)), config).run()
            values = [pt.best_makespan for pt in result.trace]
            assert all(a >= b for a, b in zip(values, values[1:]))

    # population stays exactly N; every transferred individual keeps its skeleton
    monkeypatch.setattr(flowmt.emt, "_TRANSFER_PERIOD", 1)
    monkeypatch.setattr(flowmt.emt, "_TRANSFER_COUNT", 4)
    config = EngineConfig(
        population=12,
        ls_intensity=10,
        transfer_mode="ri",
        max_generations=1,
        rng_seed=4,
    )
    engine = Engine(TaskPair(exp, ImpTsk("lsp", 30)), config)
    grng = Random(4)
    pop = engine.initialize(grng)
    critical = engine.tasks[TASK_EAT][1]
    for gen in range(1, 6):
        order = list(range(len(pop)))
        grng.shuffle(order)
        offspring = []
        for a, b in zip(order[::2], order[1::2]):
            for kid in engine.mate(pop[a], pop[b], grng):
                task_matrix = engine.tasks[kid.skill][0]
                kid.objectives[kid.skill] = makespan(
                    task_matrix, engine.decode_task(kid.skill, kid.genotype)
                )
                rows = _walk_batch(engine.D)
                full = engine.draw(kid, grng, rows)
                engine.improve([kid], [full], rows)
                offspring.append(kid)
        donors = sorted(
            (ind for ind in pop if ind.skill == TASK_EAT),
            key=lambda ind: (ind.objectives[TASK_EAT], ind.uid),
        )[:4]
        transferred = engine.explicit_transfer(pop, gen)
        assert len(transferred) == len(donors)
        for donor, new in zip(donors, transferred):
            assert new.skill == TASK_EXP
            full = rov_decode(new.genotype)
            assert project_to_eat(full, critical) == engine.decode_task(
                TASK_EAT, donor.genotype
            )
        pop = engine.select(pop + offspring + transferred)
        assert len(pop) == 12

    # campaign outputs byte-identical across reruns in generation mode, under
    # the engine's own transfer period and count
    monkeypatch.undo()
    inst_rng = Random(111)
    for idx in range(2):
        inst = Instance(random_matrix(inst_rng, 8, 4), name=f"c{idx}")
        (tmp_path / f"c{idx}.txt").write_text(write_instance(inst))
    def campaign():
        return CampaignConfig(
            instances=["c0.txt", "c1.txt"],
            algorithms=["MFEA-I/LSP-30/RI", "P-MFEA/LST-30/IK"],
            runs=2,
            base_seed=5,
            max_generations=3,
            population=8,
            ls_intensity=5,
            out_dir="out",
            base_dir=str(tmp_path),
        )
    run_campaign(campaign())
    snapshot = {
        p.relative_to(tmp_path): p.read_bytes() for p in (tmp_path / "out").rglob("*.csv")
    }
    run_campaign(campaign())
    again = {
        p.relative_to(tmp_path): p.read_bytes() for p in (tmp_path / "out").rglob("*.csv")
    }
    assert snapshot == again

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(10, f"monotone traces, fixed population, skeletons, identical reruns ({elapsed:.1f}s)")
