"""Golden digests of fixed-seed, generation-limited engine runs.

A digest covers a run's best_perm, best makespan and whole trace. Such runs
are bit-reproducible, so a digest changes only when the engine's behaviour or
its order of rng draws does. The cases cover both encodings, ``ik`` and
``ri`` transfer, and the ``lsp-20`` and ``rndtsk2`` pairings. Every benchmark
run reports match or differs per case without failing on a difference.

    python3 perfbench/golden.py           # compare against golden.json
    python3 perfbench/golden.py --write   # regenerate it after a declared behaviour change
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import check
from common import import_flowmt

GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"

TA001 = (20, 5, 873654221)
MID = (50, 10, 1958948863)
AUX = (10, 5, 1401007982)
GENERATIONS = 8

# name -> (instance size and time seed, encoding, pairing, transfer)
CASES = {
    "realkey-lsp20-ri-20x5": (TA001, "realkey", "lsp-20", "ri"),
    "perm-lsp20-ik-20x5": (TA001, "perm", "lsp-20", "ik"),
    "realkey-rndtsk2-ik-20x5": (TA001, "realkey", "rndtsk2", "ik"),
    "perm-rndtsk2-ik-20x5": (TA001, "perm", "rndtsk2", "ik"),
    "perm-lsp20-ri-50x10": (MID, "perm", "lsp-20", "ri"),
    "realkey-lsp20-ik-50x10": (MID, "realkey", "lsp-20", "ik"),
}


def digest(result) -> str:
    payload = json.dumps([
        list(result.best_perm),
        result.best_makespan,
        [[p.elapsed_s, p.generation, p.best_makespan] for p in result.trace],
    ])
    return hashlib.sha256(payload.encode()).hexdigest()


def run_case(fm, name):
    """Run one case; returns its RunResult and the instance's job-major times."""
    size, encoding, pairing, transfer = CASES[name]
    inst = fm.generate_taillard(*size)
    if pairing == "rndtsk2":
        pair = fm.TaskPair(inst, fm.RndTsk(2, fm.generate_taillard(*AUX)))
    else:
        pair = fm.TaskPair(inst, fm.ImpTsk("lsp", 20))
    config = fm.EngineConfig(population=20, ls_intensity=10, encoding=encoding,
                             transfer_mode=transfer, max_generations=GENERATIONS, rng_seed=7)
    return fm.Engine(pair, config).run(), size


def compare(fm) -> list[tuple[str, str]]:
    """(case, "match" | "differs" | "missing") for every case; each run's
    outputs also pass the independent checks."""
    stored = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.is_file() else {}
    out = []
    for name in CASES:
        result, size = run_case(fm, name)
        check.check_engine_run(check.taillard_times(*size), result, GENERATIONS, f"golden {name}")
        want = stored.get(name)
        out.append((name, "missing" if want is None else
                    "match" if want == digest(result) else "differs"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate golden.json")
    args = parser.parse_args(argv)
    fm = import_flowmt()
    if args.write:
        table = {name: digest(run_case(fm, name)[0]) for name in CASES}
        GOLDEN_FILE.write_text(json.dumps(table, indent=2) + "\n")
        print(f"wrote {len(table)} digests to {GOLDEN_FILE.name}")
        return 0
    statuses = compare(fm)
    for name, status in statuses:
        print(f"golden {name}: {status}")
    return 0 if all(s == "match" for _, s in statuses) else 1


if __name__ == "__main__":
    raise SystemExit(main())
