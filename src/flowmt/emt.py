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
from math import cos, inf, log, sin, sqrt, tau
from random import Random
from typing import NamedTuple

from .auxiliary import build_eat, check_pairing, critical_count
from .errors import ConfigError, UnderfullPoolError
from .instance import Instance, _makespans
from .search import _draw_walk, _insert_best, _position_pairs, _walk_batch, _walk_minima
from .transfer import default_key_values, perm_to_vector, project_to_eat, rov_decode

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
]

TASK_EXP = "EXP"
TASK_EAT = "EAT"

# A generation's INSERT walks are scored in batches of about this many
# completion-table cells (rows x jobs x machines) per task. The batch kernel
# makes about 2*n*m numpy calls whatever the batch's width, so a cap on cells
# keeps one flush's time and memory about the same at every size. At 100x20
# it allows about 4190 rows, so a default generation's 2450-2860 walk rows of
# a task make one batch; the kernel takes 5.6 µs a row in 1326-row batches,
# 3.1 µs in 2499 and 3.0 µs in 4182 (12 ms). At 500x20 it allows about 839
# rows: 24 µs a row (21 ms) in 867-row batches against 38 µs in 306. Such a
# batch packs 0.87 MB of 16-bit job numbers, half the 1.7 MB of 32-bit ones;
# the cap counts cells, not bytes, so it holds at either width. There the
# kernel state stays int32, as 519 * 99 > 32767 (see ``_makespans``). The
# cap also bounds how far scoring runs past the deadline:
# 2000-move walks at 100x20 overran a 0.3 s budget by 8-32 ms, and real-key/RI
# runs at 500x20 with budgets of 1.2-2.2 s by at most 43 ms (max RSS 41.8 MB).
_WALK_BATCH_CELLS = 1 << 23

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
        check_pairing(self.measure, self.k)


@dataclass(frozen=True, eq=False)
class RndTsk:
    """Auxiliary task taken from an unrelated benchmark instance."""

    kind: int  # 1: same job count, 2: fewer jobs, 3: more jobs
    instance: Instance

    def __post_init__(self):
        if self.kind not in (1, 2, 3):
            raise ConfigError(f"random-pairing kind must be 1, 2 or 3, got {self.kind}")


@dataclass(eq=False)
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
        if self.time_budget is not None and not self.time_budget >= 0:  # rejects NaN too
            raise ConfigError(f"time budget must be >= 0, got {self.time_budget}")
        if self.time_budget == inf and self.max_generations is None:
            raise ConfigError("an infinite time budget needs a generation limit")
        if self.max_generations is not None and self.max_generations < 0:
            raise ConfigError("generation limit must be >= 0")


@dataclass
class Individual:
    genotype: tuple
    skill: str
    objectives: dict = field(default_factory=dict)
    uid: int = 0


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


class _Clock:
    """One run's wall clock: its start, its deadline, and the rule that a run
    without a time budget, which then has a generation limit, reports zero
    times, so that its results are reproducible."""

    def __init__(self, time_budget: float | None):
        self.start = time.perf_counter()
        self.deadline = None if time_budget is None else self.start + time_budget

    def past(self) -> bool:
        """Whether the deadline has passed; never, for a run without one."""
        return self.deadline is not None and time.perf_counter() >= self.deadline

    def elapsed(self) -> float:
        """Seconds since the start; 0.0 for a run without a deadline."""
        return 0.0 if self.deadline is None else time.perf_counter() - self.start


def _rank_key(task: str):
    """Rank order on one task: lowest objective, then first created (lowest uid)."""
    return lambda ind: (ind.objectives[task], ind.uid)


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
        gene; and ``self.remaining``: the jobs an EAT leaves out, in descending
        importance, or () for a random pairing.
        """
        exp = self.pair.exp
        pairing = self.pair.pairing
        if isinstance(pairing, ImpTsk):
            eat = build_eat(exp.matrix, pairing.measure, pairing.k, rng=rng)
            aux_matrix, aux_jobs = exp.matrix, eat.selected  # rows of the kept jobs are the task
            self.remaining = eat.remaining
        else:
            aux_matrix = pairing.instance.matrix
            aux_jobs, self.remaining = range(1, aux_matrix.n + 1), ()
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
        return self._project(task, self.decode_full(genotype))

    def _project(self, task: str, full: list[int]) -> list[int]:
        """A full decode as a sequence of the task's own jobs."""
        jobs = self.tasks[task][1]
        return full if jobs is None else project_to_eat(full, jobs)

    def _next_uid(self) -> int:
        self._uid += 1
        return self._uid

    # -- population operators -----------------------------------------------

    def initialize(self, rng: Random) -> list[Individual]:
        """Uniform random population; everyone is scored on both tasks once and
        adopts the task where it ranks better (ties favor the expensive task).
        The auxiliary task is resolved first, from the same ``rng``."""
        self.resolve(rng)
        random = rng.random
        pop = []
        for _ in range(self.config.population):
            if self.config.encoding == "realkey":
                genotype = tuple([random() for _ in range(self.D)])
            else:
                seq = list(range(1, self.D + 1))
                rng.shuffle(seq)
                genotype = tuple(seq)
            pop.append(Individual(genotype=genotype, skill=TASK_EXP, uid=self._next_uid()))
        fulls = [self.decode_full(ind.genotype) for ind in pop]
        for task, (mat, _) in self.tasks.items():
            seqs = [self._project(task, full) for full in fulls]
            for ind, value in zip(pop, _makespans(mat.p, seqs).tolist()):
                ind.objectives[task] = value
        ranks = {task: self._task_ranks(pop, task) for task in (TASK_EXP, TASK_EAT)}
        for ind in pop:
            if ranks[TASK_EAT][ind.uid] < ranks[TASK_EXP][ind.uid]:
                ind.skill = TASK_EAT
        return pop

    def _sbx(self, xa: tuple, xb: tuple, rng: Random) -> tuple[tuple, tuple]:
        """Simulated binary crossover, one ``rng.random()`` per gene, children
        clamped to [0, 1].

        ``(v if v < 1.0 else 1.0) if v > 0.0 else 0.0`` is exactly what
        ``min(1.0, max(0.0, v))`` returns, for -0.0 and NaN too, without the
        two builtin calls per key; a test pins the children and the rng state
        against the ``min``/``max`` loop.
        """
        random = rng.random
        exponent = 1.0 / (_SBX_ETA + 1.0)
        c1, c2 = [], []
        put1, put2 = c1.append, c2.append
        for a, b in zip(xa, xb):
            u = random()
            if u <= 0.5:
                beta = (2.0 * u) ** exponent
            else:
                beta = (1.0 / (2.0 * (1.0 - u))) ** exponent
            v1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
            v2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
            put1((v1 if v1 < 1.0 else 1.0) if v1 > 0.0 else 0.0)
            put2((v2 if v2 < 1.0 else 1.0) if v2 > 0.0 else 0.0)
        return tuple(c1), tuple(c2)

    def _gauss_mutate(self, x: tuple, rng: Random) -> tuple:
        """Each key plus ``rng.gauss(0.0, _MUT_SIGMA)``, clamped to [0, 1].

        Inlines ``random.gauss`` of CPython 3.10-3.12: a pair of ``random()``
        draws gives a cosine deviate for one key and a sine deviate kept in
        ``rng.gauss_next`` for the next, so an odd key count carries the spare
        into the next call as ``gauss`` does. Every float operation is gauss's
        own, ``0.0 + z * sigma`` included; a test pins the keys and the rng
        state against ``gauss`` itself.
        """
        random = rng.random
        sigma = _MUT_SIGMA
        z = rng.gauss_next
        out = []
        put = out.append
        for v in x:
            if z is None:
                x2pi = random() * tau
                g2rad = sqrt(-2.0 * log(1.0 - random()))
                v += 0.0 + cos(x2pi) * g2rad * sigma
                z = sin(x2pi) * g2rad
            else:
                v += 0.0 + z * sigma
                z = None
            put((v if v < 1.0 else 1.0) if v > 0.0 else 0.0)
        rng.gauss_next = z
        return tuple(out)

    def _ordered_crossover(self, pa: tuple, pb: tuple, rng: Random) -> tuple[tuple, tuple]:
        length = len(pa)
        if length < 2:  # a one-gene genotype has nothing to cross; draws nothing
            return pa, pb
        i, j = _position_pairs(length, 1, rng.getrandbits)

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
        if len(x) < 2:  # a one-gene genotype mutates to itself; draws nothing
            return x
        out = list(x)
        i, j = _position_pairs(len(out), 1, rng.getrandbits)
        out[i], out[j] = out[j], out[i]
        return tuple(out)

    def mate(self, pa: Individual, pb: Individual, rng: Random):
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
        return [
            Individual(genotype=g1, skill=s1, uid=self._next_uid()),
            Individual(genotype=g2, skill=s2, uid=self._next_uid()),
        ]

    def draw(self, ind: Individual, rng: Random, rows: array) -> list[int]:
        """Append the individual's INSERT walk (``ls_intensity`` moves) on its
        own task to ``rows``, its task's pending batch for ``improve``, and
        return its full decode."""
        full = self.decode_full(ind.genotype)
        _draw_walk(self._project(ind.skill, full), self.config.ls_intensity, rng, rows)
        return full

    def improve(self, kids: list[Individual], fulls: list[list[int]], rows: array) -> None:
        """Score the walks of ``kids``, all skilled at one task and drawn in
        order by ``draw`` into ``fulls`` and ``rows``, in one batch.

        Each kid's objective is the first minimum of its walk, and its
        genotype is re-aligned so decoding reproduces that sequence; jobs
        outside the task keep their places in the kid's full decode.
        """
        task = kids[0].skill
        mat, jobs = self.tasks[task]
        length = self.D if jobs is None else len(jobs)
        seqs, values = _walk_minima(mat.p, rows, len(kids), length)
        for ind, full, seq, value in zip(kids, fulls, seqs, values):
            ind.objectives[task] = value
            if jobs is not None:
                it = iter(seq)
                seq = [next(it) if job in jobs else job for job in full]
            ind.genotype = self.encode(ind.genotype, seq)

    def explicit_transfer(
        self, population: list[Individual], generation: int, stop=None
    ) -> list[Individual]:
        """Patch the best auxiliary-skill schedules into expensive-task offspring.

        Runs every ``_TRANSFER_PERIOD`` generations and takes at most
        ``_TRANSFER_COUNT`` donors; the remaining jobs are inserted in
        descending importance at their best positions, in one batch over all
        donors that also yields each offspring's makespan.
        ``stop``, a zero-argument check such as the run clock's ``past``, is
        called before each insertion step, and once it returns true the
        transfer yields no offspring and uses no uid: five donors take about
        25-45 ms at 100x20 but about 0.45 s at 500x20, where a step takes
        about 1 ms.
        """
        if self.config.transfer_mode != "ri" or generation % _TRANSFER_PERIOD != 0:
            return []
        donors = [ind for ind in population if ind.skill == TASK_EAT]
        if not donors:
            return []
        donors.sort(key=_rank_key(TASK_EAT))
        skeletons = [self.decode_task(TASK_EAT, ind.genotype) for ind in donors[:_TRANSFER_COUNT]]
        seqs, values = _insert_best(
            self.pair.exp.matrix, skeletons, self.remaining, latest_ties=False, stop=stop
        )
        keys = default_key_values(self.D)
        return [
            Individual(
                genotype=self.encode(keys, seq), skill=TASK_EXP, objectives={TASK_EXP: value},
                uid=self._next_uid(),
            )
            for seq, value in zip(seqs, values)
        ]

    def _task_ranks(self, pool: list[Individual], task: str) -> dict:
        """1-based rank per uid on one task; unevaluated individuals are absent.
        Rank 1 comes first in ``_rank_key`` order."""
        cands = [ind for ind in pool if task in ind.objectives]
        cands.sort(key=_rank_key(task))
        return {ind.uid: rank for rank, ind in enumerate(cands, start=1)}

    def best(self, pool: list[Individual]) -> Individual:
        """The expensive task's rank-1 individual; ``select`` always keeps it,
        so after a selection it is the first-seen best of the whole run."""
        return min((ind for ind in pool if TASK_EXP in ind.objectives), key=_rank_key(TASK_EXP))

    def select(self, pool: list[Individual]) -> list[Individual]:
        """Keep the highest-fitness (1 / best factorial rank) individuals from
        parents plus offspring; ties go to that task's lower objective, then uid."""
        n = self.config.population
        if len(pool) < n:
            raise UnderfullPoolError(f"pool of {len(pool)} cannot fill population {n}")
        ranks = {task: self._task_ranks(pool, task) for task in (TASK_EXP, TASK_EAT)}

        def key(ind: Individual):
            rank, obj = min((ranks[task][ind.uid], ind.objectives[task]) for task in ind.objectives)
            return rank, obj, ind.uid

        return sorted(pool, key=key)[:n]

    # -- main loop -----------------------------------------------------------

    def run(self) -> RunResult:
        config = self.config
        clock = _Clock(config.time_budget)
        limit = inf if config.max_generations is None else config.max_generations
        rng = Random(config.rng_seed)
        pop = self.initialize(rng)
        machines = self.pair.exp.m  # both tasks have the expensive task's machines

        trace = [TracePoint(clock.elapsed(), 0, self.best(pop).objectives[TASK_EXP])]

        gen = 0
        while gen < limit and not clock.past():  # a run at its limit stops by generations
            gen += 1
            order = list(range(len(pop)))
            rng.shuffle(order)
            offspring = []
            pending = {task: ([], [], _walk_batch(self.D)) for task in self.tasks}
            for a, b in zip(order[::2], order[1::2]):
                if clock.past():
                    break  # select over what this generation has made so far
                for kid in self.mate(pop[a], pop[b], rng):
                    kids, fulls, rows = pending[kid.skill]
                    kids.append(kid)
                    fulls.append(self.draw(kid, rng, rows))
                    offspring.append(kid)
                    if len(rows) * machines >= _WALK_BATCH_CELLS:
                        self.improve(kids, fulls, rows)
                        pending[kid.skill] = ([], [], _walk_batch(self.D))
            for task in self.tasks:  # popped, so each batch is freed once scored
                kids, fulls, rows = pending.pop(task)
                if kids:
                    self.improve(kids, fulls, rows)
            offspring.extend(self.explicit_transfer(pop, gen, clock.past))
            pop = self.select(pop + offspring)
            trace.append(TracePoint(clock.elapsed(), gen, self.best(pop).objectives[TASK_EXP]))

        elapsed_s = clock.elapsed()  # a deadline implies a timed run, so this is the real time
        champion = self.best(pop)
        return RunResult(
            best_perm=tuple(self.decode_task(TASK_EXP, champion.genotype)),
            best_makespan=champion.objectives[TASK_EXP],
            trace=trace,
            generations=gen,
            elapsed_s=elapsed_s,
            stopped_by="generations" if gen >= limit else "budget",
            overrun_s=0.0 if clock.deadline is None else max(0.0, elapsed_s - config.time_budget),
        )
