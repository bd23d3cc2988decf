import statistics
from random import Random

import pytest

from flowmt.emt import Engine, ImpTsk
from flowmt.errors import ConfigError, ParameterError, ParseError
from flowmt.harness import (
    CampaignConfig,
    RunRecord,
    _cell_trace_path,
    aggregate,
    distance_sweep,
    load_instance_file,
    parse_algorithm,
    parse_campaign_config,
    read_runs_csv,
    relative_error,
    run_campaign,
)
from flowmt.instance import Instance, lower_bound, write_instance

from conftest import random_matrix


class TestRelativeError:
    def test_zero_error(self):
        assert relative_error(100, 100) == 0.0

    def test_direct_formula(self):
        assert relative_error(110, 100) == 10.0

    def test_hand_arithmetic(self):
        assert abs(relative_error(2786, 2724) - 100 * 62 / 2724) < 1e-12
        assert abs(relative_error(2786, 2724) - 2.2761) < 5e-4

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(ParameterError):
            relative_error(5, 0)


class TestAggregate:
    def _records(self, res):
        return [
            RunRecord("a", "i", idx, idx, 100, 0.0, re=re)
            for idx, re in enumerate(res)
        ]

    def test_mean_min_max(self):
        row = aggregate(self._records([2.0, 4.0, 6.0]))
        assert (row.are, row.bre, row.wre) == (4.0, 2.0, 6.0)

    def test_single_record_collapse(self):
        row = aggregate(self._records([3.0]))
        assert row.are == row.bre == row.wre == 3.0

    def test_matches_statistics_module(self):
        rng = Random(1)
        res = [rng.uniform(0, 20) for _ in range(20)]
        row = aggregate(self._records(res))
        assert abs(row.are - statistics.mean(res)) < 1e-12
        assert row.bre == min(res)
        assert row.wre == max(res)
        assert row.bre <= row.are <= row.wre

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            aggregate([])

    def test_mixed_groups_rejected(self):
        records = self._records([1.0]) + [RunRecord("b", "i", 0, 0, 100, 0.0, re=1.0)]
        with pytest.raises(ParameterError):
            aggregate(records)


class TestLoadInstanceFile:
    def test_neither_format_reports_both_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\n1 2 x\n4 5 6\n")
        with pytest.raises(ParseError) as err:
            load_instance_file(path)
        message = str(err.value)
        assert "line 2, column 3: non-numeric token 'x'" in message
        assert "line 3: expected 3 data lines, found 2" in message
        assert str(path) in message


class TestAlgorithmNames:
    def test_importance_triplet(self):
        spec = parse_algorithm("MFEA-I/LSP-20/RI")
        assert spec.encoding == "realkey"
        assert spec.transfer == "ri"
        assert spec.pairing == ImpTsk("lsp", 20)

    def test_permutation_engine(self):
        spec = parse_algorithm("P-MFEA/KK2-30/IK")
        assert spec.encoding == "perm"
        assert spec.pairing == ImpTsk("kk2", 30)

    def test_random_pairing_with_file(self):
        spec = parse_algorithm("MFEA-I/RndTsk2:aux_small.txt/IK")
        assert spec.pairing == (2, "aux_small.txt")

    @pytest.mark.parametrize(
        "bad",
        [
            "MFEA-I/LSP-20",
            "XXX/LSP-20/RI",
            "MFEA-I/LSP20/RI",
            "MFEA-I/zzz-20/RI",
            "MFEA-I/rndtsk9:f/IK",
            "MFEA-I/rndtsk2/IK",
            "MFEA-I/LSP-20/XX",
            "MFEA-I/LSP-5/RI",
            "MFEA-I/LSP-95/RI",
        ],
    )
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_algorithm(bad)


class TestCampaignConfigParsing:
    def test_full_config(self):
        text = """
        # comment
        instance=a.txt
        instance=b.txt
        algorithm=MFEA-I/LSP-20/RI
        runs=3
        base_seed=1000
        max_generations=4
        population=8
        ls_intensity=5
        out_dir=out
        """
        cfg = parse_campaign_config(text)
        assert cfg.instances == ["a.txt", "b.txt"]
        assert cfg.runs == 3
        assert cfg.max_generations == 4

    def test_unknown_algorithm_rejected_before_running(self):
        with pytest.raises(ConfigError):
            parse_campaign_config("algorithm=nope/nope/nope\nmax_generations=2")

    def test_missing_termination_rejected(self):
        with pytest.raises(ConfigError):
            parse_campaign_config("runs=2")

    def test_bad_algorithm_line_named(self):
        text = "max_generations=2\nalgorithm=MFEA-I/LSP-20/IK\nalgorithm=MFEA-I/LSP-5/RI\n"
        with pytest.raises(ConfigError, match="line 3.*outside 10..90"):
            parse_campaign_config(text)

    @pytest.mark.parametrize(
        "bad_line, rule",
        [
            ("population=5", "population must be an even number"),
            ("population=0", "population must be an even number"),
            ("ls_intensity=-1", "local-search intensity must be >= 0"),
            ("max_generations=-2", "generation limit must be >= 0"),
            ("budget_factor=-0.5", "time budget must be >= 0"),
            ("budget_factor=nan", "time budget must be >= 0"),
            ("runs=0", "runs must be >= 1, got 0"),
            ("parallelism=0", "parallelism must be >= 1, got 0"),
            ("parallelism=-3", "parallelism must be >= 1, got -3"),
        ],
    )
    def test_bad_engine_value_line_named(self, bad_line, rule):
        # each cell's EngineConfig would reject an engine value only once the
        # output existed, and a parallelism below 1 would run cells serially
        text = f"algorithm=MFEA-I/LSP-50/IK\nbase_seed=7\n{bad_line}\nruns=1\n"
        with pytest.raises(ConfigError, match=f"line 3: {rule}"):
            parse_campaign_config(text)
        key, value = bad_line.split("=")
        kwargs = {"max_generations": 2, key: (float if key == "budget_factor" else int)(value)}
        with pytest.raises(ConfigError, match=rule):
            CampaignConfig(**kwargs)

    def test_infinite_budget_needs_generation_limit(self):
        # a deadline at infinity never passes: without a generation limit no cell ends
        with pytest.raises(ConfigError, match="infinite time budget needs a generation limit"):
            parse_campaign_config("algorithm=MFEA-I/LSP-50/IK\nbudget_factor=inf\n")
        cfg = parse_campaign_config(
            "algorithm=MFEA-I/LSP-50/IK\nbudget_factor=inf\nmax_generations=2\n"
        )
        assert cfg.budget_factor == float("inf")

    @pytest.mark.parametrize("again", ["MFEA-I/LSP-20/RI", "mfea-i/lsp-20/ri"])
    def test_repeated_algorithm_rejected(self, again):
        # listed twice, each of its cells would run twice, with the same seeds
        text = f"algorithm=MFEA-I/LSP-20/RI\nmax_generations=2\nalgorithm={again}\n"
        with pytest.raises(ConfigError, match=f"line 3: algorithm '{again}' is already listed"):
            parse_campaign_config(text)
        with pytest.raises(ConfigError, match=f"'{again}' is already listed as 'MFEA-I/LSP-20/RI'"):
            CampaignConfig(algorithms=["MFEA-I/LSP-20/RI", again], max_generations=2)
        # other pairings, transfers and encodings are other algorithms
        CampaignConfig(
            algorithms=["MFEA-I/LSP-20/RI", "MFEA-I/LSP-30/RI", "MFEA-I/LSP-20/IK", "P-MFEA/LSP-20/RI"],
            max_generations=2,
        )


@pytest.fixture
def campaign_dir(tmp_path):
    rng = Random(9)
    for idx in range(2):
        inst = Instance(random_matrix(rng, 8, 4), name=f"inst{idx}")
        (tmp_path / f"inst{idx}.txt").write_text(write_instance(inst))
    aux = Instance(random_matrix(rng, 4, 4), name="aux")
    (tmp_path / "aux.txt").write_text(write_instance(aux))
    return tmp_path


def small_config(tmp_path, **overrides) -> CampaignConfig:
    kwargs = dict(
        instances=["inst0.txt", "inst1.txt"],
        algorithms=["MFEA-I/LSP-20/RI", "MFEA-I/rndtsk2:aux.txt/IK"],
        runs=2,
        base_seed=100,
        max_generations=2,
        population=6,
        ls_intensity=3,
        out_dir="out",
        base_dir=str(tmp_path),
    )
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


class TestRunCampaign:
    def test_cell_counts_and_outputs(self, campaign_dir):
        records, metrics = run_campaign(small_config(campaign_dir))
        assert len(records) == 8  # 2 algorithms x 2 instances x 2 runs
        assert len(metrics) == 4
        out = campaign_dir / "out"
        assert (out / "runs.csv").exists()
        assert (out / "metrics.csv").exists()
        assert len(list((out / "traces").glob("*.csv"))) == 8
        for row in metrics:
            assert row.bre <= row.are <= row.wre
        for rec in records:
            assert rec.re is not None and rec.re >= 0.0
            assert rec.re_basis == "campaign_best"

    def test_metrics_sorted(self, campaign_dir):
        _, metrics = run_campaign(small_config(campaign_dir))
        keys = [(m.algorithm, m.instance) for m in metrics]
        assert keys == sorted(keys)

    def test_makespans_respect_lower_bound(self, campaign_dir):
        records, _ = run_campaign(small_config(campaign_dir))
        bounds = {
            name: lower_bound(load_instance_file(campaign_dir / f"{name}.txt").matrix)
            for name in ("inst0", "inst1")
        }
        for rec in records:
            assert rec.makespan >= bounds[rec.instance]

    def test_reruns_byte_identical(self, campaign_dir, monkeypatch):
        config = small_config(campaign_dir)
        run_campaign(config)
        out = campaign_dir / "out"
        first = {p.name: p.read_bytes() for p in out.rglob("*.csv")}
        calls = []
        real_run = Engine.run
        monkeypatch.setattr(Engine, "run", lambda self: calls.append(1) or real_run(self))
        run_campaign(small_config(campaign_dir))
        second = {p.name: p.read_bytes() for p in out.rglob("*.csv")}
        assert first == second
        assert calls == []  # every cell was journaled, so the resume runs none

    def test_resume_after_partial_loss(self, campaign_dir):
        config = small_config(campaign_dir)
        run_campaign(config)
        runs_csv = campaign_dir / "out" / "runs.csv"
        pristine = runs_csv.read_bytes()
        lines = runs_csv.read_text().splitlines()
        runs_csv.write_text("\n".join(lines[:1 + len(lines) // 2]) + "\n")
        run_campaign(small_config(campaign_dir))
        assert runs_csv.read_bytes() == pristine

    @pytest.mark.parametrize(
        "cut",
        [
            lambda rows: rows[0] + rows[1] + rows[2] + rows[3][: rows[3].index("traces/") + 22],
            lambda rows: rows[0] + rows[1] + rows[2] + rows[3].rstrip("\n"),
            lambda rows: rows[0][:9],
        ],
        ids=["inside-trace-path", "before-newline", "inside-header"],
    )
    def test_resume_redoes_a_torn_last_row(self, campaign_dir, monkeypatch, cut):
        # a crash mid-write leaves the journal's last row without its newline;
        # trusted, the torn row named a trace file that does not exist
        config = small_config(campaign_dir, instances=["inst0.txt"],
                              algorithms=["P-MFEA/LSP-20/IK"], runs=4)
        run_campaign(config)
        out = campaign_dir / "out"
        pristine = {p.relative_to(out): p.read_bytes() for p in out.rglob("*.csv")}
        runs_csv = out / "runs.csv"
        rows = runs_csv.read_bytes().decode().splitlines(keepends=True)
        torn = cut(rows)
        runs_csv.write_bytes(torn.encode())
        whole = torn.count("\n") - 1  # finished rows left in the journal

        calls = []
        real_run = Engine.run
        monkeypatch.setattr(Engine, "run", lambda self: calls.append(1) or real_run(self))
        records, _ = run_campaign(config)
        assert len(calls) == 4 - max(whole, 0)
        assert all((out / r.trace_path).is_file() for r in records)
        assert {p.relative_to(out): p.read_bytes() for p in out.rglob("*.csv")} == pristine

    @pytest.mark.parametrize(
        "edit", [lambda cells: cells[:-1], lambda cells: cells + ["extra"]], ids=["short", "long"]
    )
    def test_resume_rejects_a_row_of_the_wrong_width(self, campaign_dir, monkeypatch, edit):
        # a row that ends in its newline was written whole, so a cell too few
        # or too many is damage, not a crash to redo; trusted, the short row
        # left run 0 with an empty trace cell
        config = small_config(campaign_dir, instances=["inst0.txt"],
                              algorithms=["P-MFEA/LSP-20/IK"], runs=2)
        run_campaign(config)
        runs_csv = campaign_dir / "out" / "runs.csv"
        header, row = runs_csv.read_bytes().decode().splitlines(keepends=True)[:2]
        cells = row.rstrip("\r\n")
        edited = ",".join(edit(cells.split(","))) + row[len(cells):]  # newline kept
        runs_csv.write_bytes((header + edited).encode())

        calls = []
        real_run = Engine.run
        monkeypatch.setattr(Engine, "run", lambda self: calls.append(1) or real_run(self))
        with pytest.raises(ConfigError, match=r"runs\.csv: line 2 is not a finished run record"):
            run_campaign(config)
        with pytest.raises(ConfigError, match=r"runs\.csv: line 2 is not a finished run record"):
            read_runs_csv(runs_csv)
        assert calls == []

    def test_empty_instance_list(self, campaign_dir):
        # a campaign of no cells is a config mistake, not header-only CSVs
        with pytest.raises(ConfigError, match="no instance= line"):
            run_campaign(small_config(campaign_dir, instances=[]))
        assert not (campaign_dir / "out").exists()

    def test_best_known_reference_used(self, campaign_dir):
        # taillard-format header carries the reference makespan
        inst = load_instance_file(campaign_dir / "inst0.txt")
        taillard_lines = ["8 4 1 9999"] + [
            " ".join(str(inst.matrix.p[i, j]) for i in range(8)) for j in range(4)
        ]
        (campaign_dir / "known.txt").write_text("\n".join(taillard_lines))
        config = small_config(
            campaign_dir,
            instances=["known.txt"],
            algorithms=["MFEA-I/LSP-20/RI"],
            runs=1,
        )
        records, _ = run_campaign(config)
        assert records[0].re_basis == "best_known"

    def test_parallel_workers_give_same_results(self, campaign_dir):
        config = small_config(campaign_dir)
        run_campaign(config)
        serial = (campaign_dir / "out" / "runs.csv").read_bytes()
        import shutil

        shutil.rmtree(campaign_dir / "out")
        run_campaign(small_config(campaign_dir, parallelism=2))
        assert (campaign_dir / "out" / "runs.csv").read_bytes() == serial

    @staticmethod
    def _failing_campaign(tmp_path, **overrides):
        rng = Random(31)
        for name, n, m in (("a20x5", 20, 5), ("b20x5", 20, 5), ("aux", 10, 5)):
            inst = Instance(random_matrix(rng, n, m), name=name)
            (tmp_path / f"{name}.txt").write_text(write_instance(inst))
        algorithm = "MFEA-I/RndTsk2:aux.txt/IK"
        # a directory at each of b20x5's trace paths makes its cells fail
        # once their engine runs have finished
        for run_index in range(2):
            (tmp_path / "out" / _cell_trace_path(algorithm, "b20x5", run_index)).mkdir(parents=True)
        config = dict(
            algorithms=[algorithm],
            runs=2,
            max_generations=1,
            population=6,
            ls_intensity=2,
            out_dir="out",
            base_dir=str(tmp_path),
        )
        config.update(overrides)
        return config

    def _assert_resumes_without_rerun(self, tmp_path, monkeypatch, config):
        journal = read_runs_csv(tmp_path / "out" / "runs.csv")
        journal.sort(key=lambda r: r.run_index)
        assert [(r.instance, r.run_index) for r in journal] == [("a20x5", 0), ("a20x5", 1)]
        assert all(r.re is None for r in journal)

        calls = []
        real_run = Engine.run
        monkeypatch.setattr(Engine, "run", lambda self: calls.append(1) or real_run(self))
        records, _ = run_campaign(CampaignConfig(instances=["a20x5.txt"], **config))
        assert calls == []
        assert [r.makespan for r in records] == [r.makespan for r in journal]
        assert all(r.re is not None for r in records)

    def test_failed_campaign_journals_finished_cells(self, tmp_path, monkeypatch):
        config = self._failing_campaign(tmp_path)
        with pytest.raises(IsADirectoryError):
            run_campaign(CampaignConfig(instances=["a20x5.txt", "b20x5.txt"], **config))
        self._assert_resumes_without_rerun(tmp_path, monkeypatch, config)

    def test_parallel_campaign_journals_cells_finished_after_a_failure(
        self, tmp_path, monkeypatch
    ):
        config = self._failing_campaign(tmp_path, parallelism=2)
        # the failing instance comes first, so every good cell finishes after it
        with pytest.raises(IsADirectoryError):
            run_campaign(CampaignConfig(instances=["b20x5.txt", "a20x5.txt"], **config))
        self._assert_resumes_without_rerun(tmp_path, monkeypatch, config)

    @pytest.mark.parametrize(
        "instances, algorithms, message",
        [
            # the first algorithm runs on the 6-job instance; the second keeps no job
            (["six.txt"], ["MFEA-I/LSP-50/IK", "MFEA-I/LSP-10/IK"], "selects no jobs"),
            # the 4x5 auxiliary pairs with the 5-machine instance, not the 4-machine one
            (["inst0.txt", "six.txt"], ["MFEA-I/rndtsk2:aux5.txt/IK"], "machines"),
        ],
        ids=["ratio", "rndtsk-machines"],
    )
    def test_bad_pairing_fails_before_any_cell(
        self, tmp_path, monkeypatch, instances, algorithms, message
    ):
        rng = Random(41)
        for name, n, m in (("inst0", 8, 5), ("six", 6, 4), ("aux5", 4, 5)):
            inst = Instance(random_matrix(rng, n, m), name=name)
            (tmp_path / f"{name}.txt").write_text(write_instance(inst))
        calls = []
        monkeypatch.setattr(Engine, "run", lambda self: calls.append(1))
        config = small_config(tmp_path, instances=instances, algorithms=algorithms)
        with pytest.raises(ConfigError, match=message) as err:
            run_campaign(config)
        assert algorithms[-1] in str(err.value) and "'six'" in str(err.value)
        assert calls == []
        runs_csv = tmp_path / "out" / "runs.csv"
        assert not runs_csv.exists() or read_runs_csv(runs_csv) == []
        assert not list(tmp_path.glob("out/traces/*"))

    def test_all_zero_instance_fails_before_any_cell(self, tmp_path, monkeypatch):
        # every makespan is 0, so no relative error exists: the campaign
        # could journal every cell and still never write metrics.csv
        (tmp_path / "zero.txt").write_text("3 2\n0 0\n0 0\n0 0\n")
        calls = []
        monkeypatch.setattr(Engine, "run", lambda self: calls.append(1))
        config = small_config(tmp_path, instances=["zero.txt"], algorithms=["MFEA-I/LSP-40/IK"])
        with pytest.raises(ConfigError, match="'zero'.*every processing time is 0"):
            run_campaign(config)
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_population_below_the_transfer_count_runs(self, campaign_dir):
        config = small_config(
            campaign_dir, algorithms=["MFEA-I/LSP-20/RI"], population=4, max_generations=6
        )
        records, _ = run_campaign(config)
        assert len(records) == 4
        assert all(rec.re is not None for rec in records)


class TestDistanceSweep:
    def test_fig2_single_row(self, fig2_instance):
        rows = distance_sweep([fig2_instance], ["lsp"], [40])
        assert len(rows) == 1
        name, measure, ratio, d, cos_theta, bound = rows[0]
        assert (name, measure, ratio) == ("fig2", "lsp", 40)
        assert 0.0 <= d <= 1.0
        assert abs(bound - 0.0552) < 5e-4
        assert cos_theta >= bound

    def test_bound_soundness_all_rows(self):
        rng = Random(10)
        instances = [Instance(random_matrix(rng, 12, 4), name=f"r{i}") for i in range(4)]
        rows = distance_sweep(instances, ["lsp", "lst", "rnd"], [20, 40, 60], seed=7)
        assert len(rows) == 4 * 3 * 3
        for _, _, _, d, cos_theta, bound in rows:
            assert 0.0 <= d <= 1.0
            assert cos_theta >= bound - 1e-12

    def test_deterministic(self, fig2_instance):
        a = distance_sweep([fig2_instance], ["rnd"], [30, 50], seed=3)
        b = distance_sweep([fig2_instance], ["rnd"], [30, 50], seed=3)
        assert a == b


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: aggregate([RunRecord("a", "i", 0, 0, 100, 0.0)]), ParameterError,
         "aggregate needs relative errors on every record"),
        (lambda: parse_algorithm("MFEA-I/LSP-x/RI"), ConfigError,
         "bad sampling ratio in pairing 'LSP-x'"),
    ],
    ids=["aggregate-without-re", "non-integer-ratio"],
)
def test_error_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
