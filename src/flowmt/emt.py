"""Multifactorial evolutionary engine for an expensive task plus one auxiliary task.

A single population carries individuals skilled at either the expensive task
(EXP) or the auxiliary one (EAT). Knowledge moves implicitly through
cross-skill mating and, optionally, explicitly: the best auxiliary-task
schedules are patched into complete expensive-task schedules and injected back
as offspring.

Two encodings are supported. Real-key individuals live in [0,1]^D and decode
through ranked-order values; permutation individuals are job sequences
directly. D is the largest job count across the task pair.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from random import Random
from typing import NamedTuple

from .auxiliary import EatSpec, MEASURES, build_eat, critical_count
from .errors import ConfigError, UnderfullPoolError
from .instance import Instance, _makespans
from .search import _draw_walk, _walk_minima
from .transfer import (
    default_key_values,
    patch,
    perm_to_vector,
    project_to_eat,
    rov_decode,
)

__all__ = [
    "TASK_EXP",
    "TASK_EAT",
    "ImpTsk",
    "RndTsk",
    "TaskPair",
    "EngineConfig",
    "Individual",
    "TracePoint",
    "RunResult",
    "Engine",
    "run",
]

TASK_EXP = "EXP"
TASK_EAT = "EAT"

# A generation's INSERT walks are scored in batches of about this many packed
# int32 cells (512 KB) per task. The batch kernel's cost per row levels off
# at about a thousand rows of 100 jobs, which the cap still holds (1310 rows).
# The cap bounds how long scoring runs past the wall-clock deadline: scored
# only at the end of a generation, 2000-move walks at 100x20 overrun a 0.3 s
# budget by about 0.3 s. It also bounds memory: uncapped, solve-ri-100x20
# peaks at 42.8 MB instead of 42.0 MB.
_WALK_BATCH_CELLS = 1 << 17

# The fixed MFEA protocol (Gupta, Ong & Feng 2016) that every engine runs.
_RMP = 0.3  # random mating probability of a cross-skill pair
_SBX_ETA = 2.0  # SBX distribution index
_MUT_SIGMA = 0.05  # std. deviation of the Gaussian mutation of a real key
_TRANSFER_PERIOD = 5  # generations between explicit transfers
_TRANSFER_COUNT = 5  # best auxiliary-skill donors patched per transfer


@dataclass(frozen=True)
class ImpTsk:
    """Auxiliary task built from the expensive task's own important rows."""

    measure: str
    k: int

    def __post_init__(self):
        if self.measure.lower() not in MEASURES:
            raise ConfigError(f"unknown importance measure {self.measure!r}")
        if not 10 <= self.k <= 90:
            raise ConfigError(f"sampling ratio {self.k} outside 10..90")


@dataclass(frozen=True)
class RndTsk:
    """Auxiliary task taken from an unrelated benchmark instance."""

    kind: int  # 1: same job count, 2: fewer jobs, 3: more jobs
    instance: Instance

    def __post_init__(self):
        if self.kind not in (1, 2, 3):
            raise ConfigError(f"random-pairing kind must be 1, 2 or 3, got {self.kind}")


@dataclass
class TaskPair:
    """The expensive task plus the description of its auxiliary companion."""

    exp: Instance
    pairing: ImpTsk | RndTsk

    def __post_init__(self):
        if isinstance(self.pairing, ImpTsk):
            critical_count(self.exp.n, self.pairing.k)
        else:
            aux = self.pairing.instance
            if aux.m != self.exp.m:
                raise ConfigError(
                    f"auxiliary has {aux.m} machines, expensive task has {self.exp.m}"
                )
            kind = self.pairing.kind
            if kind == 1 and aux.n != self.exp.n:
                raise ConfigError("rndtsk1 needs the same job count as the expensive task")
            if kind == 2 and aux.n >= self.exp.n:
                raise ConfigError("rndtsk2 needs fewer jobs than the expensive task")
            if kind == 3 and aux.n <= self.exp.n:
                raise ConfigError("rndtsk3 needs more jobs than the expensive task")


@dataclass
class EngineConfig:
    population: int = 100
    ls_intensity: int = 50
    encoding: str = "realkey"  # "realkey" or "perm"
    transfer_mode: str = "ik"  # "ik" or "ri"
    time_budget: float | None = None
    max_generations: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        self.encoding = self.encoding.lower()
        if self.encoding not in ("realkey", "perm"):
            raise ConfigError(f"unknown encoding {self.encoding!r}")
        self.transfer_mode = self.transfer_mode.lower()
        if self.transfer_mode not in ("ik", "ri"):
            raise ConfigError(f"unknown transfer mode {self.transfer_mode!r}")
        if self.population < 2 or self.population % 2:
            raise ConfigError("population must be an even number >= 2")
        if self.ls_intensity < 0:
            raise ConfigError("local-search intensity must be >= 0")
        if self.time_budget is None and self.max_generations is None:
            raise ConfigError("set a time budget, a generation limit, or both")
        if self.time_budget is not None and self.time_budget < 0:
            raise ConfigError("time budget must be >= 0")
        if self.max_generations is not None and self.max_generations < 0:
            raise ConfigError("generation limit must be >= 0")

    @property
    def deterministic(self) -> bool:
        """Generation-count termination only: reported times are zeroed."""
        return self.max_generations is not None and self.time_budget is None


@dataclass
class Individual:
    genotype: tuple
    skill: str
    objectives: dict = field(default_factory=dict)
    birth: int = 0
    uid: int = 0
    fitness: float = 0.0


class TracePoint(NamedTuple):
    elapsed_s: float
    generation: int
    best_makespan: int


@dataclass
class RunResult:
    best_perm: tuple
    best_makespan: int
    trace: list
    generations: int
    elapsed_s: float
    stopped_by: str = "generations"  # "generations" or "budget"
    overrun_s: float = 0.0  # time past the deadline; zeroed like elapsed_s


def _past(deadline: float | None) -> bool:
    return deadline is not None and time.perf_counter() >= deadline


def _rank_key(task: str):
    return lambda ind: (ind.objectives[task], ind.birth, ind.uid)


class Engine:
    """One engine instance owns one run's population state and rng."""

    def __init__(self, pair: TaskPair, config: EngineConfig):
        self.pair = pair
        self.config = config
        if config.transfer_mode == "ri" and not isinstance(pair.pairing, ImpTsk):
            raise ConfigError(
                "patched-solution transfer needs an auxiliary task drawn from the "
                "expensive task's own jobs"
            )
        self.aux: EatSpec | Instance | None = None  # resolved when the run starts
        self._uid = 0
        # the encoding's operators; the decoder is looked up per engine, so a
        # wrapper installed on ``emt.rov_decode`` sees its calls
        realkey = config.encoding == "realkey"
        self._cross = self._sbx if realkey else self._ordered_crossover
        self._mutate = self._gauss_mutate if realkey else self._swap_mutate
        self.decode_full = rov_decode if realkey else list

    # -- task plumbing ------------------------------------------------------

    def resolve(self, rng: Random) -> None:
        """Materialize the auxiliary task; counted inside the run's budget.

        Fills ``self.tasks``: task -> (matrix, jobs), where ``jobs`` is the set
        a full sequence projects onto, or None when the task schedules every
        gene.
        """
        exp = self.pair.exp
        pairing = self.pair.pairing
        if isinstance(pairing, ImpTsk):
            self.aux = build_eat(exp.matrix, pairing.measure, pairing.k, rng=rng)
            aux_matrix, aux_jobs = exp.matrix, self.aux.S  # rows of the kept jobs are the task
        else:
            self.aux = pairing.instance
            aux_matrix, aux_jobs = self.aux.matrix, range(1, self.aux.n + 1)
        self.D = max(exp.n, aux_matrix.n)
        self.tasks = {
            task: (matrix, None if len(jobs) == self.D else set(jobs))
            for task, matrix, jobs in (
                (TASK_EXP, exp.matrix, range(1, exp.n + 1)),
                (TASK_EAT, aux_matrix, aux_jobs),
            )
        }

    def encode(self, keys: tuple | list, seq: list[int]) -> tuple:
        """A genotype that decodes to ``seq``; real keys are taken from ``keys``."""
        if self.config.encoding == "realkey":
            return tuple(perm_to_vector(keys, seq))
        return tuple(seq)

    def decode_task(self, task: str, genotype: tuple) -> list[int]:
        full = self.decode_full(genotype)
        jobs = self.tasks[task][1]
        return full if jobs is None else project_to_eat(full, jobs)

    def _next_uid(self) -> int:
        self._uid += 1
        return self._uid

    # -- population operators -----------------------------------------------

    def initialize(self, rng: Random) -> list[Individual]:
        """Uniform random population; everyone is scored on both tasks once and
        adopts the task where it ranks better (ties favor the expensive task)."""
        if self.aux is None:
            self.resolve(rng)
        pop = []
        for _ in range(self.config.population):
            if self.config.encoding == "realkey":
                genotype = tuple(rng.random() for _ in range(self.D))
            else:
                seq = list(range(1, self.D + 1))
                rng.shuffle(seq)
                genotype = tuple(seq)
            pop.append(Individual(genotype=genotype, skill=TASK_EXP, uid=self._next_uid()))
        for task, (mat, _) in self.tasks.items():
            seqs = [self.decode_task(task, ind.genotype) for ind in pop]
            for ind, value in zip(pop, _makespans(mat.p, seqs).tolist()):
                ind.objectives[task] = value
        ranks = {task: self._task_ranks(pop, task) for task in (TASK_EXP, TASK_EAT)}
        for ind in pop:
            if ranks[TASK_EAT][ind.uid] < ranks[TASK_EXP][ind.uid]:
                ind.skill = TASK_EAT
        return pop

    def _sbx(self, xa: tuple, xb: tuple, rng: Random) -> tuple[tuple, tuple]:
        eta = _SBX_ETA
        c1, c2 = [], []
        for a, b in zip(xa, xb):
            u = rng.random()
            if u <= 0.5:
                beta = (2.0 * u) ** (1.0 / (eta + 1.0))
            else:
                beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0))
            v1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
            v2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
            c1.append(min(1.0, max(0.0, v1)))
            c2.append(min(1.0, max(0.0, v2)))
        return tuple(c1), tuple(c2)

    def _gauss_mutate(self, x: tuple, rng: Random) -> tuple:
        return tuple(min(1.0, max(0.0, v + rng.gauss(0.0, _MUT_SIGMA))) for v in x)

    def _ordered_crossover(self, pa: tuple, pb: tuple, rng: Random) -> tuple[tuple, tuple]:
        length = len(pa)
        i, j = sorted(rng.sample(range(length), 2))

        def child(keep, fill_from):
            mid = keep[i : j + 1]
            midset = set(mid)
            fill = [g for g in fill_from if g not in midset]
            out = [0] * length
            out[i : j + 1] = mid
            pos = (j + 1) % length
            for g in fill:
                out[pos] = g
                pos = (pos + 1) % length
            return tuple(out)

        return child(pa, pb), child(pb, pa)

    def _swap_mutate(self, x: tuple, rng: Random) -> tuple:
        out = list(x)
        i, j = rng.sample(range(len(out)), 2)
        out[i], out[j] = out[j], out[i]
        return tuple(out)

    def mate(self, pa: Individual, pb: Individual, rng: Random, birth: int = 0):
        """Assortative mating with skill inheritance; returns two offspring."""
        same_skill = pa.skill == pb.skill
        if same_skill or rng.random() < _RMP:
            g1, g2 = self._cross(pa.genotype, pb.genotype, rng)
            if same_skill:
                s1 = s2 = pa.skill
            else:
                s1 = pa.skill if rng.random() < 0.5 else pb.skill
                s2 = pa.skill if rng.random() < 0.5 else pb.skill
        else:
            g1, g2 = self._mutate(pa.genotype, rng), self._mutate(pb.genotype, rng)
            s1, s2 = pa.skill, pb.skill
        kids = [
            Individual(genotype=g1, skill=s1, birth=birth, uid=self._next_uid()),
            Individual(genotype=g2, skill=s2, birth=birth, uid=self._next_uid()),
        ]
        return kids

    def draw(self, ind: Individual, rng: Random) -> array:
        """The individual's INSERT walk (``ls_intensity`` moves) on its own
        task, packed for ``improve``."""
        seq = self.decode_task(ind.skill, ind.genotype)
        return _draw_walk(seq, self.config.ls_intensity, rng)

    def improve(self, kids: list[Individual], rows: array) -> None:
        """Score the walks of ``kids``, all skilled at one task and drawn in
        order by ``draw`` into ``rows``, in one batch.

        Each kid's objective is the first minimum of its walk; after walks of
        one move or more its genotype is re-aligned so decoding reproduces
        that sequence.
        """
        task = kids[0].skill
        mat, jobs = self.tasks[task]
        length = self.D if jobs is None else len(jobs)
        seqs, values = _walk_minima(mat.p, rows, len(kids), length)
        for ind, seq, value in zip(kids, seqs, values):
            ind.objectives[task] = value
            if self.config.ls_intensity == 0:
                continue
            if jobs is None:
                full = seq
            else:
                it = iter(seq)
                full = [next(it) if job in jobs else job for job in self.decode_full(ind.genotype)]
            ind.genotype = self.encode(ind.genotype, full)

    def explicit_transfer(
        self,
        population: list[Individual],
        generation: int,
        rng: Random,
        deadline: float | None = None,
    ) -> list[Individual]:
        """Patch the best auxiliary-skill schedules into expensive-task offspring.

        Runs every ``_TRANSFER_PERIOD`` generations and takes at most
        ``_TRANSFER_COUNT`` donors; the remaining jobs are inserted in
        descending importance at their best positions. No patch starts once
        ``time.perf_counter()`` has reached ``deadline``.
        """
        if self.config.transfer_mode != "ri" or generation % _TRANSFER_PERIOD != 0:
            return []
        eat: EatSpec = self.aux
        donors = [ind for ind in population if ind.skill == TASK_EAT]
        donors.sort(key=lambda ind: (ind.objectives[TASK_EAT], ind.uid))
        out, seqs = [], []
        exp_matrix = self.pair.exp.matrix
        keys = default_key_values(self.D)
        for donor in donors[:_TRANSFER_COUNT]:
            if _past(deadline):
                break
            pi_eat = self.decode_task(TASK_EAT, donor.genotype)
            complete = patch("ri", pi_eat, list(eat.remaining), exp_matrix, rng)
            out.append(Individual(
                genotype=self.encode(keys, complete), skill=TASK_EXP,
                birth=generation, uid=self._next_uid(),
            ))
            seqs.append(complete)
        if out:  # score every patched schedule in one batch
            for ind, value in zip(out, _makespans(exp_matrix.p, seqs).tolist()):
                ind.objectives[TASK_EXP] = value
        return out

    def _task_ranks(self, pool: list[Individual], task: str) -> dict:
        """1-based rank per uid on one task; unevaluated individuals are absent.
        Rank 1 is the lowest (objective, birth, uid)."""
        cands = [ind for ind in pool if task in ind.objectives]
        cands.sort(key=_rank_key(task))
        return {ind.uid: rank for rank, ind in enumerate(cands, start=1)}

    def best(self, pool: list[Individual]) -> Individual:
        """The expensive task's rank-1 individual; ``select`` always keeps it,
        so after a selection it is the first-seen best of the whole run."""
        return min((ind for ind in pool if TASK_EXP in ind.objectives), key=_rank_key(TASK_EXP))

    def select(self, pool: list[Individual]) -> list[Individual]:
        """Keep the highest-fitness individuals from parents plus offspring."""
        n = self.config.population
        if len(pool) < n:
            raise UnderfullPoolError(f"pool of {len(pool)} cannot fill population {n}")
        ranks = {task: self._task_ranks(pool, task) for task in (TASK_EXP, TASK_EAT)}

        def best_key(ind: Individual):
            return min(
                (ranks[task][ind.uid], ind.objectives[task])
                for task in ind.objectives
            )

        keyed = []
        for ind in pool:
            min_rank, obj = best_key(ind)
            ind.fitness = 1.0 / min_rank
            keyed.append(((min_rank, obj, ind.uid), ind))
        keyed.sort(key=lambda t: t[0])
        return [ind for _, ind in keyed[:n]]

    # -- main loop -----------------------------------------------------------

    def run(self) -> RunResult:
        config = self.config
        start = time.perf_counter()
        deadline = None if config.time_budget is None else start + config.time_budget

        def elapsed() -> float:
            return 0.0 if config.deterministic else time.perf_counter() - start

        def stop_reason(done_generations: int) -> str | None:
            if (
                config.max_generations is not None
                and done_generations >= config.max_generations
            ):
                return "generations"
            return "budget" if _past(deadline) else None

        rng = Random(config.rng_seed)
        self.resolve(rng)
        pop = self.initialize(rng)

        trace = [TracePoint(elapsed(), 0, self.best(pop).objectives[TASK_EXP])]

        gen = 0
        while (stopped_by := stop_reason(gen)) is None:
            gen += 1
            order = list(range(len(pop)))
            rng.shuffle(order)
            offspring = []
            pending = {task: ([], array("i")) for task in self.tasks}
            for a, b in zip(order[::2], order[1::2]):
                if _past(deadline):
                    break  # select over what this generation has made so far
                for kid in self.mate(pop[a], pop[b], rng, birth=gen):
                    kids, rows = pending[kid.skill]
                    kids.append(kid)
                    rows.extend(self.draw(kid, rng))
                    offspring.append(kid)
                    if len(rows) >= _WALK_BATCH_CELLS:
                        self.improve(kids, rows)
                        pending[kid.skill] = ([], array("i"))
            for task in self.tasks:  # popped, so each batch is freed once scored
                kids, rows = pending.pop(task)
                if kids:
                    self.improve(kids, rows)
            offspring.extend(self.explicit_transfer(pop, gen, rng, deadline))
            pop = self.select(pop + offspring)
            trace.append(TracePoint(elapsed(), gen, self.best(pop).objectives[TASK_EXP]))

        elapsed_s = elapsed()  # a deadline implies a timed run, so this is the real time
        champion = self.best(pop)
        return RunResult(
            best_perm=tuple(self.decode_task(TASK_EXP, champion.genotype)),
            best_makespan=champion.objectives[TASK_EXP],
            trace=trace,
            generations=gen,
            elapsed_s=elapsed_s,
            stopped_by=stopped_by,
            overrun_s=0.0 if deadline is None else max(0.0, elapsed_s - config.time_budget),
        )


def run(pair: TaskPair, config: EngineConfig) -> RunResult:
    """Construct an engine and execute one full run."""
    return Engine(pair, config).run()
