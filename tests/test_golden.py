"""The benchmark's golden digests of fixed-seed, generation-limited runs.

Each digest covers a run's best_perm, best makespan and whole trace, so a
refactor or speedup that changes any of them, or the order of rng draws,
fails here. The cases and digests live in ``perfbench/golden.py`` and
``perfbench/golden.json``.
"""

import hashlib
import sys
from pathlib import Path
from random import Random

import pytest

import flowmt
from flowmt import cli
from flowmt.harness import write_sweep_csv
from flowmt.search import _insert_best

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import golden  # noqa: E402


def test_golden_digests_match():
    statuses = golden.compare(flowmt)
    assert len(statuses) == len(golden.CASES)
    assert all(status == "match" for _, status in statuses), statuses


# The golden cases stop at 50x10. This run pins the 100-job paths too: the
# pair draw above 21 positions, wide walk batches packed in 16 bits and scored
# in int16 kernel state, and RI transfer at 100x20. Its digest was recorded
# with the int64 kernel, 32-bit walk rows and the one-pair-per-call walk draw
# that came before them.
RI_100X20_DIGEST = "68c09ea54be5a2adba923461b08e8686f4bf511113cb04834b0a813f45bae775"


def test_realkey_ri_100x20_digest_matches():
    inst = flowmt.generate_taillard(100, 20, 1539989115)
    config = flowmt.EngineConfig(
        encoding="realkey", transfer_mode="ri", max_generations=5, rng_seed=1
    )
    result = flowmt.Engine(flowmt.TaskPair(inst, flowmt.ImpTsk("lsp", 20)), config).run()
    assert result.best_makespan == 6655
    assert golden.digest(result) == RI_100X20_DIGEST


# The golden cases pair only by lsp-20 and rndtsk2. These runs pin the other
# pairing paths: rndtsk1, rndtsk3 (the only pairing that projects the
# expensive task onto its own jobs), rnd (drawn from the run's rng inside
# resolve) and sr0 (NEH inside resolve). Their digests were recorded with the
# four-field AlgorithmSpec and the engine's `aux` attribute that came before
# the single pairing description.
PAIRINGS = {
    "rndtsk1": ("ik", lambda: flowmt.RndTsk(1, flowmt.generate_taillard(20, 5, 379008056))),
    "rndtsk3": ("ik", lambda: flowmt.RndTsk(3, flowmt.generate_taillard(30, 5, 1401007982))),
    "sr0-30": ("ri", lambda: flowmt.ImpTsk("sr0", 30)),
    "rnd-30": ("ri", lambda: flowmt.ImpTsk("rnd", 30)),
}
PAIRING_DIGESTS = {
    ("realkey", "rndtsk1"): (1370, "0cff0b2518167f7fec8546d721a3159fbc68bfaf8464258d0eae0c9bf866397f"),
    ("realkey", "rndtsk3"): (1363, "fa00f3ae8b598475ec200fc4832da20beab2f38da0960eb81f06ce5bc20af129"),
    ("realkey", "sr0-30"): (1303, "339cb1e2717a5664632f28a85f440669c200d94ffbca018096e479a4780f1be7"),
    ("realkey", "rnd-30"): (1297, "a280090ff15ed501c6f500e5bc3007bfad5b4fda6ef9e23cab2979f8a086b849"),
    ("perm", "rndtsk1"): (1342, "26538752affe9dcba3f58a773f3959b506da47e36a1fb79488486ed276ffc411"),
    ("perm", "rndtsk3"): (1377, "37e8ad06f56ae35dae54d5be0fcdbd214a5c9b0f7bbf9a048a5cc31470492462"),
    ("perm", "sr0-30"): (1297, "599a1f8a64f791188d200378a84009c02bbbebaf794fc2cf2b7077b044fbd2d8"),
    ("perm", "rnd-30"): (1302, "89d2d4c073923104b11ce45144562add42e064042f2269e636af6c621a6daae3"),
}


@pytest.mark.parametrize("encoding, pairing", sorted(PAIRING_DIGESTS))
def test_pairing_digest_matches(encoding, pairing):
    exp = flowmt.generate_taillard(20, 5, 873654221)
    mode, make = PAIRINGS[pairing]
    config = flowmt.EngineConfig(population=20, ls_intensity=10, encoding=encoding,
                                 transfer_mode=mode, max_generations=8, rng_seed=7)
    result = flowmt.Engine(flowmt.TaskPair(exp, make()), config).run()
    assert sorted(result.best_perm) == list(range(1, exp.n + 1))
    assert flowmt.makespan(exp.matrix, result.best_perm) == result.best_makespan
    assert (result.best_makespan, golden.digest(result)) == PAIRING_DIGESTS[encoding, pairing]


# No golden case or workload reaches 500 jobs. These pin the best-slot
# insertion kernel at 500x20: NEH over all jobs in lst order, and an RI batch
# that inserts the 400 non-critical lsp-20 jobs into five orders of the
# critical ones, as an engine's transfer does. Their digests were recorded
# with the kernel that kept its rows as Python lists and stacked heads and
# tails from a separate completion-time generator.
NEH_500X20_DIGEST = "22dbb192aa9e03945a08c21a3b9f72eaed433287e46573fd8e89030facea48ea"
RI_BATCH_500X20_DIGEST = "09eb9cbe2d467865f0a1e09b57c3affd1c3f4ed3bad03e46a3ed0ec2eb9943b6"


def test_insertion_at_500x20_digests_match():
    matrix = flowmt.generate_taillard(500, 20, 777).matrix
    seq = flowmt.neh(matrix, flowmt.importance_scores(matrix, "lst")[1])
    assert flowmt.makespan(matrix, seq) == 27106
    assert hashlib.sha256(repr(seq).encode()).hexdigest() == NEH_500X20_DIGEST
    eat = flowmt.build_eat(matrix, "lsp", 20)
    rng = Random(5)
    donors = [rng.sample(eat.selected, eat.g) for _ in range(5)]
    seqs, values = _insert_best(matrix, donors, eat.remaining, latest_ties=False)
    assert values == [27182, 27144, 27112, 27143, 27168]
    assert seqs[0] == flowmt.patch("ri", donors[0], eat.remaining, matrix)
    assert hashlib.sha256(repr((seqs, values)).encode()).hexdigest() == RI_BATCH_500X20_DIGEST


# Every file a small campaign, its resume and a distance sweep write through
# the CLI: runs.csv, metrics.csv, the traces and the sweep CSV. The campaign
# pairs one algorithm by importance (RI) and one by a random auxiliary file (IK).
# Its digest was recorded with the two per-format config readers and the
# field-by-field runs.csv reader and writer that came before the shared ones.
CLI_FILES_DIGEST = "63eac917c5a11cc93bbf19164bdf635e4d210b3ba9a2ee687a62221080cb3b6f"


def test_cli_campaign_and_sweep_digest_matches(tmp_path):
    for name, (n, m, seed) in {"exp": (20, 5, 873654221), "aux": (10, 5, 1401007982)}.items():
        inst = flowmt.generate_taillard(n, m, seed)
        (tmp_path / f"{name}.txt").write_text(flowmt.write_instance(inst))
    campaign, sweep = tmp_path / "campaign.cfg", tmp_path / "sweep.cfg"
    campaign.write_text(
        "instance=exp.txt\nalgorithm=MFEA-I/LSP-20/RI\nalgorithm=P-MFEA/RndTsk2:aux.txt/IK\n"
        "runs=2\nbase_seed=3\nmax_generations=3\npopulation=10\nls_intensity=5\nout_dir=out\n"
    )
    sweep.write_text("instance=exp.txt\nmeasures=lsp,kk2,rnd\nratios=20,50\nseed=3\nout=sweep.csv\n")

    def files():
        paths = tmp_path.rglob("*.csv")
        return {p.relative_to(tmp_path).as_posix(): p.read_bytes() for p in paths}

    assert cli.main(["experiment", str(campaign)]) == 0
    first = files()
    assert cli.main(["experiment", str(campaign)]) == 0  # resumes over a finished journal
    assert files() == first
    assert cli.main(["distance-sweep", str(sweep)]) == 0
    digest = hashlib.sha256()
    for name, data in sorted(files().items()):
        digest.update(name.encode() + b"\0" + data)
    assert len(first) == 6  # runs.csv, metrics.csv and four traces
    assert digest.hexdigest() == CLI_FILES_DIGEST


# What describing an EAT touches: a sweep over every measure and ratio on two
# instances, and build-eat's file and S/g report for an importance measure, a
# random one and a sequence one. Its digest was recorded with the EatSpec
# that repeated its measure, ratio and critical set, and the zero_pad that
# copied the compact rows back into a full-size matrix.
EAT_DIGEST = "e2cc7c80b961c40a6a1ae930b3982f70f94c72a4855886ef5577ec30769c1206"


def test_eat_sweep_and_build_digest_matches(tmp_path, capsys):
    big = flowmt.generate_taillard(100, 20, 1539989115)
    small = flowmt.generate_taillard(20, 5, 873654221)
    rows = flowmt.distance_sweep([big, small], flowmt.MEASURES, range(10, 100, 10), seed=3)
    write_sweep_csv(tmp_path / "sweep.csv", rows)
    digest = hashlib.sha256((tmp_path / "sweep.csv").read_bytes())
    (tmp_path / "big.txt").write_text(flowmt.write_instance(big))
    for args in (["lsp", "--ratio", "20"], ["rnd", "--ratio", "40", "--seed", "5"],
                 ["sr1", "--ratio", "30"]):
        out = tmp_path / "eat.txt"
        argv = ["build-eat", str(tmp_path / "big.txt"), "--measure", *args, "--out", str(out)]
        assert cli.main(argv) == 0
        digest.update(out.read_bytes() + b"\0" + capsys.readouterr().out.encode())
    assert len(rows) == 2 * 8 * 9
    assert digest.hexdigest() == EAT_DIGEST
