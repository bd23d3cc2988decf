"""The benchmark's workloads.

Each workload has a set-up (import, instance generation, input files), a
round of fixed work whose wall-clock time is ``wall_s``, and checks on the
round's outputs, made after the timing. Instances are fixed per workload so
that ``best_makespan`` compares like with like; the run's ``--seed`` drives
every random choice the program makes (engine, campaign and sweep seeds).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import shutil
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import NamedTuple

import check
import golden
from check import require

TA001_SEED = 873654221  # time seed of the first classic 20x5 instance
TA001_OPTIMUM = 1278
TA001_LOWER = 1232

MEASURES = ["lsp", "lst", "kk1", "kk2", "sr0", "sr1", "sr2", "rnd"]
SWEEP_RATIOS = list(range(10, 100, 10))


class RoundResult(NamedTuple):
    attempted: int
    failed: int
    generations: int
    best_makespan: int
    digest: str  # the same in every round of one run


def _verify_generated(p, n, m, seed):
    """Times from the library generator match the independent generator."""
    times = check.taillard_times(n, m, seed)
    require(p.tolist() == times, f"generate_taillard({n}, {m}, {seed}) differs from the reference")
    return times


class SolveWorkload:
    """One generation-limited engine run on a fixed instance, loaded from file."""

    def __init__(self, name, n, m, time_seed, encoding, transfer, generations):
        self.name = name
        self.n, self.m, self.time_seed = n, m, time_seed
        self.encoding, self.transfer, self.generations = encoding, transfer, generations

    def setup(self, fm, workdir: Path, seed: int):
        inst = fm.generate_taillard(self.n, self.m, self.time_seed)
        path = workdir / f"{inst.name}.txt"
        path.write_text(fm.write_instance(inst))
        return SimpleNamespace(path=path, seed=seed, p=inst.matrix.p, times=None)

    def verify_setup(self, state) -> None:
        state.times = _verify_generated(state.p, self.n, self.m, self.time_seed)

    def run_round(self, fm, state, index, tracer):
        start = perf_counter()
        try:
            inst = fm.load_instance_file(state.path)
            config = fm.EngineConfig(
                encoding=self.encoding,
                transfer_mode=self.transfer,
                max_generations=self.generations,
                rng_seed=state.seed,
            )
            result = fm.Engine(fm.TaskPair(inst, fm.ImpTsk("lsp", 20)), config).run()
        except Exception:
            traceback.print_exc()
            result = None
        return perf_counter() - start, result

    def check_round(self, state, result) -> RoundResult:
        if result is None:
            return RoundResult(1, 1, 0, 0, "")
        check.check_engine_run(state.times, result, self.generations, self.name)
        return RoundResult(1, 0, result.generations, result.best_makespan, golden.digest(result))


@contextlib.contextmanager
def _count_engine_runs(fm):
    """Counts Engine.run calls made inside the block."""
    engine = fm.emt.Engine
    original = engine.__dict__["run"]
    counter = SimpleNamespace(calls=0)

    def run(self, *args, **kwargs):
        counter.calls += 1
        return original(self, *args, **kwargs)

    engine.run = run
    try:
        yield counter
    finally:
        engine.run = original


class CampaignWorkload:
    """The experiment pipeline run through ``flowmt.cli.main``."""

    name = "study-campaign"
    generations = 10
    runs = 2
    # file stem -> (n, m, time seed); ta001 is written in taillard format
    instances = {
        "ta001": (20, 5, TA001_SEED),
        "gen20x10": (20, 10, 587595453),
        "aux10x5": (10, 5, 1401007982),
        "gen100x20": (100, 20, 1539989115),
    }
    campaigns = {
        "main": (["ta001", "gen20x10"],
                 ["MFEA-I/LSP-20/RI", "P-MFEA/LSP-20/IK", "P-MFEA/LSP-20/RI"]),
        "random": (["ta001"], ["MFEA-I/RndTsk2:aux10x5.txt/IK", "MFEA-I/LSP-20/IK"]),
    }
    operations = 7

    def setup(self, fm, workdir: Path, seed: int):
        inputs = workdir / "inputs"
        inputs.mkdir()
        p = {}
        for stem, (n, m, time_seed) in self.instances.items():
            inst = fm.generate_taillard(n, m, time_seed)
            p[stem] = inst.matrix.p
            if stem == "ta001":  # machine-major rows, seed and bounds in the header
                rows = [" ".join(map(str, col)) for col in inst.matrix.p.T.tolist()]
                text = "\n".join([f"{n} {m} {time_seed} {TA001_OPTIMUM} {TA001_LOWER}", *rows])
                (inputs / "ta001.txt").write_text(text + "\n")
            else:
                (inputs / f"{stem}.txt").write_text(fm.write_instance(inst))
        for out_dir, (instances, algorithms) in self.campaigns.items():
            lines = [f"instance={i}.txt" for i in instances]
            lines += [f"algorithm={a}" for a in algorithms]
            lines += [f"runs={self.runs}", f"base_seed={seed}",
                      f"max_generations={self.generations}", "population=20",
                      "ls_intensity=10", f"out_dir={out_dir}"]
            (inputs / f"{out_dir}.cfg").write_text("\n".join(lines) + "\n")
        (inputs / "sweep.cfg").write_text(
            f"instance=gen100x20.txt\nseed={seed}\nout=distances.csv\n")
        cli = importlib.import_module("flowmt.cli")
        return SimpleNamespace(inputs=inputs, workdir=workdir, seed=seed, p=p, times=None,
                               cli=cli)

    def verify_setup(self, state) -> None:
        state.times = {stem: _verify_generated(state.p[stem], *size)
                       for stem, size in self.instances.items()}

    def run_round(self, fm, state, index, tracer):
        d = state.workdir / f"round{index}"
        shutil.copytree(state.inputs, d)
        eat = str(d / "eat.txt")
        steps = [
            ("experiment", ["experiment", str(d / "main.cfg")]),
            ("experiment", ["experiment", str(d / "random.cfg")]),
            ("sweep", ["distance-sweep", str(d / "sweep.cfg")]),
            ("eat", ["build-eat", str(d / "gen100x20.txt"), "--measure", "lsp",
                     "--ratio", "20", "--out", eat]),
            ("eat", ["solve-eat", eat, "--sa-iters", "2000", "--seed", str(state.seed)]),
        ]
        wall, results = self._run_steps(state.cli, steps, tracer)
        if any(rc for rc, _ in results):
            return wall, SimpleNamespace(dir=d, results=results)
        snapshot = {p: p.read_bytes() for p in d.glob("*/*.csv")}
        resume = [("resume", ["experiment", str(d / f"{c}.cfg")]) for c in self.campaigns]
        with _count_engine_runs(fm) as engine_runs:
            resume_wall, resume_results = self._run_steps(state.cli, resume, tracer)
        return wall + resume_wall, SimpleNamespace(
            dir=d, results=results + resume_results, snapshot=snapshot,
            resume_engine_runs=engine_runs.calls)

    @staticmethod
    def _run_steps(cli, steps, tracer):
        """Time each CLI call; returns the summed seconds and (exit code, stdout) pairs."""
        wall, results = 0.0, []
        for phase, argv in steps:
            if tracer is not None:
                tracer.phase = phase
            out = io.StringIO()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    rc = cli.main(argv)
            except Exception:
                traceback.print_exc()
                rc = -1
            wall += perf_counter() - start
            results.append((rc, out.getvalue()))
        return wall, results

    def check_round(self, state, raw) -> RoundResult:
        failed = sum(1 for rc, _ in raw.results if rc != 0)
        if failed:
            return RoundResult(self.operations, failed + self.operations - len(raw.results), 0, 0, "")
        d, times = raw.dir, state.times
        totals = {"makespan": 0, "generations": 0}
        for i, (out_dir, (instances, algorithms)) in enumerate(self.campaigns.items()):
            cells = {(a, inst, r) for a in algorithms for inst in instances for r in range(self.runs)}
            require(f"completed {len(cells)} runs" in raw.results[i][1],
                    f"experiment {out_dir}: printed {raw.results[i][1]!r}")
            known = {inst: (times[inst], TA001_OPTIMUM if inst == "ta001" else None)
                     for inst in instances}
            got = check.check_campaign(d / out_dir, cells, known, self.generations, state.seed)
            for key in totals:
                totals[key] += got[key]
        require(raw.resume_engine_runs == 0,
                f"resumed campaigns ran the engine {raw.resume_engine_runs} times")
        for path, data in raw.snapshot.items():
            require(path.read_bytes() == data, f"resume rewrote {path.name} differently")
        check.check_sweep_rows(check.read_csv(d / "distances.csv"), times["gen100x20"],
                               MEASURES, SWEEP_RATIOS)
        eat_rows = check.check_eat_file(d / "eat.txt", raw.results[3][1], times["gen100x20"], 20)
        check.check_printed_schedule(raw.results[4][1], eat_rows, "solve-eat")
        digest = hashlib.sha256()
        for path in sorted(raw.snapshot):
            digest.update(raw.snapshot[path])
        shutil.rmtree(d)
        return RoundResult(self.operations, 0, totals["generations"], totals["makespan"],
                           digest.hexdigest())


WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload("solve-ri-100x20", 100, 20, 1539989115, "realkey", "ri", 5),
        SolveWorkload("solve-ik-perm-50x10", 50, 10, 1958948863, "perm", "ik", 10),
        CampaignWorkload(),
    )
}
