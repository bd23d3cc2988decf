import csv
from random import Random

import pytest

from flowmt.auxiliary import build_eat
import flowmt.cli
from flowmt.cli import main
from flowmt.emt import Engine, ImpTsk
from flowmt.errors import ParameterError
from flowmt.harness import read_runs_csv
from flowmt.instance import Instance, parse_instance, write_instance

from conftest import FIG2_TIMES, random_matrix


@pytest.fixture
def fig2_file(tmp_path, fig2_matrix):
    path = tmp_path / "fig2.txt"
    path.write_text(write_instance(Instance(fig2_matrix, name="fig2")))
    return path


def test_generate_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    assert main(["generate", "6", "3", "12345", "--out", str(out)]) == 0
    inst = parse_instance(out.read_text(), name="gen")
    assert inst.n == 6 and inst.m == 3
    assert main(["generate", "6", "3", "12345"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_distance_self_is_zero(fig2_file, capsys):
    assert main(["distance", str(fig2_file), str(fig2_file)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    fields = dict(line.split(" = ") for line in lines)
    assert float(fields["d"]) == 0.0
    assert abs(float(fields["t_star"]) - 1.0) < 1e-9
    assert abs(float(fields["cos_theta"]) - 1.0) < 1e-9


def test_build_eat_reports_selection(fig2_file, tmp_path, capsys):
    out = tmp_path / "eat.txt"
    assert main(
        ["build-eat", str(fig2_file), "--measure", "lsp", "--ratio", "40", "--out", str(out)]
    ) == 0
    report = capsys.readouterr().out
    assert "S = 4 9 5 7" in report
    assert "g = 4" in report
    eat = parse_instance(out.read_text(), name="eat")
    assert eat.n == 4 and eat.m == 5
    assert eat.matrix.rows()[0] == FIG2_TIMES[3]


def test_solve_eat_prints_schedule(fig2_file, tmp_path, capsys):
    # solve the fig2 task itself as if it were a compact task
    assert main(["solve-eat", str(fig2_file), "--sa-iters", "500", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "permutation =" in out and "makespan =" in out


def test_solve_eat_negative_iterations_exit_code(fig2_file, capsys):
    assert main(["solve-eat", str(fig2_file), "--sa-iters", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_patch_command(fig2_file, capsys):
    assert main(
        [
            "patch", str(fig2_file),
            "--strategy", "ri",
            "--eat-perm", "5,9,4,7",
            "--measure", "lsp",
        ]
    ) == 0
    out = capsys.readouterr().out
    perm_line = next(line for line in out.splitlines() if line.startswith("permutation"))
    perm = [int(tok) for tok in perm_line.split(" = ")[1].split()]
    assert sorted(perm) == list(range(1, 11))
    kept = [j for j in perm if j in {5, 9, 4, 7, 2}]
    assert kept == [5, 9, 4, 2, 7]


def test_solve_writes_trace(fig2_file, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(
        [
            "solve", str(fig2_file),
            "--pairing", "lsp-20",
            "--transfer", "ri",
            "--generations", "3",
            "--seed", "7",
            "--pop", "8",
            "--ls", "5",
            "--trace-out", str(trace),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "best_makespan =" in out
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert [r["generation"] for r in rows] == ["0", "1", "2", "3"]
    values = [int(r["best_makespan"]) for r in rows]
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("bad", ["nodir/t.csv", "adir"], ids=["missing-dir", "is-dir"])
def test_solve_rejects_its_trace_path_before_running(fig2_file, tmp_path, capsys, monkeypatch, bad):
    # the paper's budget is 0.03*n*m seconds, a minute at 100x20, all lost if
    # the trace path fails only once the run is done
    (tmp_path / "adir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    calls = []
    real_run = Engine.run
    monkeypatch.setattr(Engine, "run", lambda self: calls.append(1) or real_run(self))
    trace = tmp_path / bad
    assert main(["solve", str(fig2_file), "--generations", "30", "--trace-out", str(trace)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert str(trace) in err
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("bad", ["nodir/d.csv", "adir"], ids=["missing-dir", "is-dir"])
def test_distance_sweep_rejects_its_out_path_before_computing(
    tmp_path, fig2_file, capsys, monkeypatch, bad
):
    (tmp_path / "adir").mkdir()
    config = tmp_path / "sweep.cfg"
    config.write_text(f"instance={fig2_file.name}\nout={bad}\n")
    before = sorted(tmp_path.rglob("*"))
    calls = []
    sweep = flowmt.cli.distance_sweep
    monkeypatch.setattr(
        flowmt.cli, "distance_sweep", lambda *a, **kw: calls.append(1) or sweep(*a, **kw)
    )
    assert main(["distance-sweep", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert str(tmp_path / bad) in err
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before


def test_experiment_and_metrics(tmp_path, capsys):
    rng = Random(30)
    for idx in range(2):
        inst = Instance(random_matrix(rng, 6, 3), name=f"i{idx}")
        (tmp_path / f"i{idx}.txt").write_text(write_instance(inst))
    config = tmp_path / "campaign.cfg"
    config.write_text(
        "instance=i0.txt\n"
        "instance=i1.txt\n"
        "algorithm=MFEA-I/LSP-20/RI\n"
        "algorithm=P-MFEA/LST-30/IK\n"
        "runs=2\n"
        "base_seed=42\n"
        "max_generations=2\n"
        "population=6\n"
        "ls_intensity=3\n"
        "out_dir=results\n"
    )
    assert main(["experiment", str(config)]) == 0
    capsys.readouterr()
    runs_csv = tmp_path / "results" / "runs.csv"
    assert runs_csv.exists()
    assert main(["metrics", str(runs_csv)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("algorithm,instance,are,bre,wre")
    assert len(lines) == 5  # header + 2 algorithms x 2 instances


def test_resume_over_malformed_journal_exit_code(tmp_path, fig2_file, capsys):
    config = tmp_path / "campaign.cfg"
    config.write_text(
        "instance=fig2.txt\n"
        "algorithm=P-MFEA/LSP-20/IK\n"
        "runs=2\n"
        "max_generations=1\n"
        "population=6\n"
        "ls_intensity=2\n"
        "out_dir=results\n"
    )
    assert main(["experiment", str(config)]) == 0
    runs_csv = tmp_path / "results" / "runs.csv"
    lines = runs_csv.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    cells = lines[2].split(",")
    cells[header.index("run")] = "one"
    lines[2] = ",".join(cells)
    runs_csv.write_text("".join(lines))
    capsys.readouterr()
    assert main(["experiment", str(config)]) == 2
    err = capsys.readouterr().err
    assert "runs.csv" in err and "line 3" in err


def test_distance_sweep_command(tmp_path, fig2_file, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        f"instance={fig2_file}\n"
        "measures=lsp,lst\n"
        "ratios=20,40\n"
        "seed=1\n"
        "out=sweep.csv\n"
    )
    assert main(["distance-sweep", str(config)]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        assert 0.0 <= float(row["d"]) <= 1.0
        assert float(row["cos_theta"]) >= float(row["bound"]) - 1e-12


def test_distance_sweep_names_the_instance_a_ratio_fails_on(tmp_path, capsys, monkeypatch):
    # every ratio is checked on every instance before any row is computed
    calls = []
    monkeypatch.setattr("flowmt.harness.importance_scores", lambda *a: calls.append(1))
    rng = Random(12)
    for name, n in (("big", 30), ("small", 5)):
        inst = Instance(random_matrix(rng, n, 3), name=name)
        (tmp_path / f"{name}.txt").write_text(write_instance(inst))
    config = tmp_path / "sweep.cfg"
    config.write_text("instance=big.txt\ninstance=small.txt\nout=sweep.csv\n")
    assert main(["distance-sweep", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: instance 'small': ratio 10% selects no jobs on 5 jobs\n"
    assert calls == []
    assert not (tmp_path / "sweep.csv").exists()


def test_distance_sweep_rejects_an_all_zero_instance_before_any_row(
    tmp_path, fig2_file, capsys, monkeypatch
):
    # the cosine floor divides by the instance's squared times: 0/0 would be
    # written as a bound of nan
    calls = []
    monkeypatch.setattr("flowmt.harness.importance_scores", lambda *a: calls.append(1))
    (tmp_path / "zero.txt").write_text("4 2\n0 0\n0 0\n0 0\n0 0\n")
    config = tmp_path / "sweep.cfg"
    config.write_text(
        f"instance={fig2_file.name}\ninstance=zero.txt\nmeasures=lsp,rnd\nratios=50\n"
        "out=sweep.csv\n"
    )
    assert main(["distance-sweep", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: instance 'zero': every processing time is 0, so no cosine bound exists\n"
    assert calls == []
    assert not (tmp_path / "sweep.csv").exists()


def test_metrics_names_the_first_unfinished_run(tmp_path, capsys):
    # a journal row of a running or crashed campaign has an empty re
    runs = tmp_path / "runs.csv"
    runs.write_text(
        "algorithm,instance,run,seed,makespan,re,re_basis,elapsed_s,trace\n"
        "A,i,0,1,110,10.000000,best_known,0.000000,t0.csv\n"
        "A,i,1,2,105,,,0.000000,t1.csv\n"
        "A,j,0,3,120,,,0.000000,t2.csv\n"
    )
    assert main(["metrics", str(runs)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: {runs}: run 1 of A on i has no relative error; its campaign has not finished\n"
    )


def test_distance_sweep_without_instances_fails(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("measures=lsp\nratios=20\nout=sweep.csv\n")
    assert main(["distance-sweep", str(config)]) == 2
    assert "no instance= line" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_distance_sweep_rejects_two_files_with_one_name(tmp_path, fig2_matrix, capsys):
    # both would write rows named 'fig2'
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "fig2.txt").write_text(write_instance(Instance(fig2_matrix)))
    config = tmp_path / "sweep.cfg"
    config.write_text("instance=a/fig2.txt\ninstance=b/fig2.txt\nout=sweep.csv\n")
    assert main(["distance-sweep", str(config)]) == 2
    assert "two instance files share the name 'fig2'" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("missing", ["instance", "algorithm"])
def test_experiment_without_cells_fails_before_any_output(tmp_path, fig2_file, capsys, missing):
    lines = {"instance": f"instance={fig2_file.name}", "algorithm": "algorithm=MFEA-I/LSP-40/IK"}
    del lines[missing]
    config = tmp_path / "campaign.cfg"
    config.write_text("\n".join([*lines.values(), "max_generations=1", "out_dir=out"]) + "\n")
    assert main(["experiment", str(config)]) == 2
    assert f"no {missing}= line" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad_line", ["ratios=20,x", "seed=abc", "measures=lsp,foo", "ratios=5"])
def test_distance_sweep_bad_number_names_line(tmp_path, fig2_file, capsys, bad_line):
    config = tmp_path / "sweep.cfg"
    config.write_text(f"instance={fig2_file}\nout=sweep.csv\n{bad_line}\n")
    assert main(["distance-sweep", str(config)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and bad_line.split("=")[0] in err


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("ratios=,", "ratios lists no value"),
        ("measures= , ", "measures lists no value"),
        ("ratios=10,20,010", "ratios lists 10 twice"),
        ("measures=lsp,LSP", "measures lists 'lsp' twice"),
    ],
)
def test_distance_sweep_empty_or_repeated_list_names_line(
    tmp_path, fig2_file, capsys, bad_line, message
):
    # an empty list would write no rows, a repeated value the same rows twice
    config = tmp_path / "sweep.cfg"
    config.write_text(f"instance={fig2_file}\nseed=1\n{bad_line}\nout=sweep.csv\n")
    assert main(["distance-sweep", str(config)]) == 2
    assert f"line 3: {message}" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


# Valid lines around the bad one: line 6 of a campaign config, line 4 of a sweep config
_CONFIGS = {
    "campaign": (
        "experiment",
        "instance=fig2.txt\nalgorithm=P-MFEA/LSP-20/IK\nruns=1\nmax_generations=1\npopulation=6\n"
        "{bad}\nout_dir=out\n",
    ),
    "sweep": (
        "distance-sweep", "instance=fig2.txt\nmeasures=lsp\nratios=20\n{bad}\nseed=1\nout=out\n",
    ),
}


@pytest.mark.parametrize(
    "fmt, bad_line, message",
    [
        ("campaign", "runs=3", "line 6: runs is already set on line 3"),
        ("sweep", "measures=lst", "line 4: measures is already set on line 2"),
        ("campaign", "bogus=1", "line 6: unknown key 'bogus'"),
        ("sweep", "bogus=1", "line 4: unknown key 'bogus'"),
        ("sweep", "algorithm=MFEA-I/LSP-20/IK", "line 4: unknown key 'algorithm'"),
        ("campaign", "runs 3", "line 6: expected key=value, got 'runs 3'"),
        ("sweep", "seed", "line 4: expected key=value, got 'seed'"),
        ("campaign", "ls_intensity=six", "line 6: bad value for ls_intensity: 'six'"),
        ("sweep", "seed=abc", "line 4: bad value for seed: 'abc'"),
    ],
    ids=[
        "campaign-repeated-key", "sweep-repeated-key", "campaign-unknown-key", "sweep-unknown-key",
        "sweep-algorithm-key", "campaign-no-equals", "sweep-no-equals", "campaign-bad-number",
        "sweep-bad-number",
    ],
)
def test_config_line_rejected_before_any_output(
    tmp_path, fig2_file, capsys, fmt, bad_line, message
):
    # both formats are read by one reader, which names the line
    command, text = _CONFIGS[fmt]
    config = tmp_path / "x.cfg"
    config.write_text(text.format(bad=bad_line))
    assert main([command, str(config)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("measures=lsp,zzz", "unknown importance measure 'zzz'"),
        ("ratios=20,5", "sampling ratio 5 outside 10..90"),
    ],
    ids=["measure", "ratio"],
)
def test_pairing_rules_give_one_message(
    tmp_path, fig2_file, fig2_matrix, capsys, bad_line, message
):
    # the auxiliary task, the compact-task builder and the sweep parser share one check
    measure, ratio = ("zzz", 20) if bad_line.startswith("measures") else ("lsp", 5)
    with pytest.raises(ParameterError) as pairing:
        ImpTsk(measure, ratio)
    with pytest.raises(ParameterError) as eat:
        build_eat(fig2_matrix, measure, ratio)
    assert str(pairing.value) == str(eat.value) == message
    config = tmp_path / "sweep.cfg"
    config.write_text(f"instance={fig2_file}\nout=sweep.csv\n{bad_line}\n")
    assert main(["distance-sweep", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"line 3: bad value for {bad_line.split('=')[0]}: {message}" in err
    assert bad_line.split("=")[1] not in err  # the bad token, not the whole list


def _write_aux(path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(write_instance(Instance(random_matrix(Random(33), 4, 5), name="aux")))


@pytest.mark.parametrize("command", ["solve", "experiment"])
def test_random_pairing_file_in_subdirectory(tmp_path, fig2_file, capsys, monkeypatch, command):
    # only the first and the last '/' of an algorithm name separate its parts
    _write_aux(tmp_path / "sub" / "aux.txt")
    if command == "solve":
        monkeypatch.chdir(tmp_path)  # solve reads the file from the working directory
        argv = [
            "solve", str(fig2_file), "--pairing", "rndtsk2:sub/aux.txt", "--transfer", "ik",
            "--generations", "2", "--pop", "6", "--ls", "2", "--trace-out", str(tmp_path / "t.csv"),
        ]
    else:
        config = tmp_path / "campaign.cfg"
        config.write_text(
            "instance=fig2.txt\nalgorithm=MFEA-I/RndTsk2:sub/aux.txt/IK\n"
            "max_generations=2\npopulation=6\nls_intensity=2\nout_dir=out\n"
        )
        argv = ["experiment", str(config)]
    assert main(argv) == 0, capsys.readouterr().err
    if command == "experiment":
        (record,) = read_runs_csv(tmp_path / "out" / "runs.csv")
        assert record.algorithm == "MFEA-I/RndTsk2:sub/aux.txt/IK"
        assert (tmp_path / "out" / record.trace_path).exists()


def test_solve_reads_random_pairing_file_from_working_directory(
    tmp_path, fig2_matrix, capsys, monkeypatch
):
    # like the instance and --trace-out, not next to the instance file
    inst = tmp_path / "inst" / "fig2.txt"
    inst.parent.mkdir()
    inst.write_text(write_instance(Instance(fig2_matrix, name="fig2")))
    _write_aux(tmp_path / "aux.txt")
    monkeypatch.chdir(tmp_path)
    argv = [
        "solve", "inst/fig2.txt", "--pairing", "rndtsk2:aux.txt", "--transfer", "ik",
        "--generations", "2", "--pop", "6", "--ls", "2",
    ]
    assert main(argv) == 0, capsys.readouterr().err
    assert (tmp_path / "fig2_trace.csv").exists()


@pytest.mark.parametrize("first, second", [("a b.txt", "a_b.txt"), ("sub/aux.txt", "sub_aux.txt")])
def test_algorithms_sharing_a_trace_file_fail_before_any_output(
    tmp_path, fig2_file, capsys, first, second
):
    # the trace file name maps every character but [A-Za-z0-9-_.] to '_'
    for name in (first, second):
        _write_aux(tmp_path / name)
    config = tmp_path / "campaign.cfg"
    config.write_text(
        f"instance=fig2.txt\nalgorithm=MFEA-I/RndTsk2:{first}/IK\n"
        f"algorithm=MFEA-I/RndTsk2:{second}/IK\n"
        "max_generations=1\npopulation=6\nls_intensity=1\nout_dir=out\n"
    )
    assert main(["experiment", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"algorithms 'MFEA-I/RndTsk2:{first}/IK' and 'MFEA-I/RndTsk2:{second}/IK'" in err
    assert not (tmp_path / "out").exists()


def test_experiment_ri_on_random_pairing_fails_before_any_cell(tmp_path, fig2_file, capsys):
    # the RI rule lives in Engine; the campaign builds every cell's engine first
    aux = Instance(random_matrix(Random(32), 4, 5), name="aux")
    (tmp_path / "aux.txt").write_text(write_instance(aux))
    config = tmp_path / "campaign.cfg"
    config.write_text(
        "instance=fig2.txt\n"
        "algorithm=MFEA-I/LSP-50/IK\n"
        "algorithm=MFEA-I/RndTsk2:aux.txt/RI\n"
        "max_generations=1\npopulation=6\nls_intensity=1\nout_dir=out\n"
    )
    assert main(["experiment", str(config)]) == 2
    err = capsys.readouterr().err
    assert "algorithm 'MFEA-I/RndTsk2:aux.txt/RI' on instance 'fig2'" in err
    assert "patched-solution transfer" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "engine, encoding, pairing, transfer",
    [("MFEA-I", "realkey", "LSP-30", "RI"), ("P-MFEA", "perm", "KK1-40", "IK")],
)
def test_solve_matches_one_cell_campaign(
    tmp_path, fig2_file, capsys, engine, encoding, pairing, transfer
):
    # both commands build their engine with harness.build_engine
    config = tmp_path / "one.cfg"
    config.write_text(
        f"instance=fig2.txt\nalgorithm={engine}/{pairing}/{transfer}\n"
        "base_seed=7\nmax_generations=4\npopulation=6\nls_intensity=3\nout_dir=out\n"
    )
    assert main(["experiment", str(config)]) == 0
    trace = tmp_path / "solve.csv"
    argv = [
        "solve", str(fig2_file), "--pairing", pairing, "--transfer", transfer.lower(),
        "--encoding", encoding, "--generations", "4", "--seed", "7", "--pop", "6",
        "--ls", "3", "--trace-out", str(trace),
    ]
    capsys.readouterr()
    assert main(argv) == 0
    (record,) = read_runs_csv(tmp_path / "out" / "runs.csv")
    assert f"best_makespan = {record.makespan}\n" in capsys.readouterr().out
    assert trace.read_bytes() == (tmp_path / "out" / record.trace_path).read_bytes()


def test_experiment_bad_pairing_ratio_names_line_before_running(tmp_path, fig2_file, capsys):
    config = tmp_path / "campaign.cfg"
    config.write_text(
        f"instance={fig2_file}\n"
        "algorithm=MFEA-I/LSP-20/IK\n"
        "algorithm=MFEA-I/LSP-5/RI\n"
        "max_generations=1\npopulation=6\nls_intensity=1\nout_dir=out\n"
    )
    assert main(["experiment", str(config)]) == 2
    assert "line 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad_line", ["population=5", "ls_intensity=-1"])
def test_experiment_bad_engine_value_names_line_before_running(tmp_path, capsys, bad_line):
    inst = Instance(random_matrix(Random(31), 6, 3), name="i0")
    (tmp_path / "i0.txt").write_text(write_instance(inst))
    config = tmp_path / "campaign.cfg"
    config.write_text(
        "instance=i0.txt\n"
        "algorithm=MFEA-I/LSP-50/IK\n"
        "max_generations=1\nruns=1\nbase_seed=1\n"
        f"{bad_line}\n"
        "out_dir=out\n"
    )
    assert main(["experiment", str(config)]) == 2
    assert "line 6" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_infinite_budget_without_generation_limit_fails_before_running(
    tmp_path, fig2_file, capsys
):
    # such a run would never end
    assert main(["solve", str(fig2_file), "--budget-factor", "inf"]) == 2
    assert "infinite time budget needs a generation limit" in capsys.readouterr().err
    config = tmp_path / "campaign.cfg"
    config.write_text(
        f"instance={fig2_file.name}\nalgorithm=MFEA-I/LSP-50/IK\nbudget_factor=inf\nout_dir=out\n"
    )
    assert main(["experiment", str(config)]) == 2
    assert "infinite time budget needs a generation limit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_patch_repeated_job_exit_code(fig2_file, capsys):
    assert main(["patch", str(fig2_file), "--eat-perm", "1,1"]) == 2
    captured = capsys.readouterr()
    assert "permutation" not in captured.out
    assert "repeat" in captured.err


def test_config_error_exit_code(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("algorithm=not/a-real/thing\nmax_generations=1\n")
    assert main(["experiment", str(config)]) == 2
    assert "error:" in capsys.readouterr().err


def test_best_known_below_bound_names_file_and_token(tmp_path, capsys):
    # a taillard file: 3 jobs, 2 machines, seed 7, best known 1 (the trivial bound is 15)
    path = tmp_path / "t.txt"
    path.write_text("3 2 7 1 0\n1 2 3\n4 5 6\n")
    assert main(["solve", str(path), "--generations", "1"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "line 1, column 4: best_known 1 below trivial lower bound 15" in err


def test_missing_file_exit_code(capsys):
    assert main(["distance", "nope.txt", "alsono.txt"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ["2 1000000000000\n1 2\n3 4\n", "1000000000000 1 5\n1 2\n"], ids=["canonical", "taillard"]
)
def test_overstated_dimension_exit_code(tmp_path, fig2_file, capsys, text):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    assert main(["distance", str(path), str(fig2_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "line 2: expected 1000000000000 values, found 2" in err


@pytest.mark.parametrize(
    "command, data, offset",
    [
        ("distance", b"\xff\xfe2 2\n1 2\n3 4\n", 0),
        ("distance", b"2 2\n1 2\n3 \xe9\n", 10),
        ("build-eat", b"\xff\xfe2 2\n1 2\n3 4\n", 0),
        ("experiment", b"\xff\xfealgorithm=MFEA-I/LSP-20/IK\n", 0),
        ("distance-sweep", b"\xff\xfeinstance=fig2.txt\n", 0),
    ],
    ids=["distance", "distance-mid-file", "build-eat", "experiment", "distance-sweep"],
)
def test_non_utf8_input_names_path_and_byte(tmp_path, fig2_file, capsys, command, data, offset):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    args = [str(path), str(fig2_file)] if command == "distance" else [str(path)]
    assert main([command, *args]) == 2
    assert capsys.readouterr().err == f"error: {path}: byte {offset} is not UTF-8 text\n"


def test_solve_without_budget_or_generations_uses_the_papers_budget(
    tmp_path, capsys, monkeypatch
):
    path = tmp_path / "t.txt"
    path.write_text("4 2\n1 2\n3 4\n5 6\n7 8\n")
    configs = []
    real_run = Engine.run
    monkeypatch.setattr(Engine, "run", lambda self: configs.append(self.config) or real_run(self))
    argv = ["solve", str(path), "--pairing", "lsp-50", "--pop", "4", "--ls", "1",
            "--trace-out", str(tmp_path / "t.csv")]
    assert main(argv) == 0, capsys.readouterr().err
    (config,) = configs
    assert config.time_budget == 0.03 * 4 * 2  # 0.03 * n * m seconds
    assert config.max_generations is None


def test_solve_reports_relative_error_to_best_known(tmp_path, capsys):
    # a taillard file: 4 jobs, 2 machines, seed 7, best known 20
    path = tmp_path / "t.txt"
    path.write_text("4 2 7 20\n1 2 3 4\n4 3 2 1\n")
    argv = ["solve", str(path), "--pairing", "lsp-50", "--generations", "2", "--pop", "4",
            "--ls", "1", "--trace-out", str(tmp_path / "t.csv")]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    best = int(out[0].removeprefix("best_makespan = "))
    assert out[1] == f"re = {100.0 * (best - 20) / 20:.4f}"


def test_solve_rejects_a_best_known_of_zero_before_running(tmp_path, capsys, monkeypatch):
    # a taillard file whose best-known makespan is 0: no relative error exists
    path = tmp_path / "z.txt"
    path.write_text("3 2 5 0\n0 0 0\n0 0 0\n")
    calls = []
    monkeypatch.setattr(Engine, "run", lambda self: calls.append(1))
    argv = ["solve", str(path), "--pairing", "lsp-40", "--generations", "2",
            "--trace-out", str(tmp_path / "t.csv")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "best-known makespan 0" in err and str(path) in err
    assert calls == []
    assert not (tmp_path / "t.csv").exists()


def test_metrics_writes_out_file(tmp_path, capsys):
    runs = tmp_path / "runs.csv"
    runs.write_text(
        "algorithm,instance,run,seed,makespan,re,re_basis,elapsed_s,trace\n"
        "A,i,0,1,110,10.000000,best_known,0.000000,t0.csv\n"
        "A,i,1,2,105,5.000000,best_known,0.000000,t1.csv\n"
    )
    out = tmp_path / "metrics.csv"
    assert main(["metrics", str(runs), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().splitlines() == [
        "algorithm,instance,are,bre,wre", "A,i,7.500000,5.000000,10.000000",
    ]


def test_build_eat_without_out_writes_matrix_to_stdout(fig2_file, capsys):
    assert main(["build-eat", str(fig2_file), "--measure", "lsp", "--ratio", "40"]) == 0
    out, err = capsys.readouterr()
    eat = parse_instance(out, name="eat")
    assert eat.n == 4 and eat.m == 5
    assert eat.matrix.rows()[0] == FIG2_TIMES[3]
    assert err == "S = 4 9 5 7\ng = 4\n"


def test_patch_non_integer_eat_perm_exit_code(fig2_file, capsys):
    assert main(["patch", str(fig2_file), "--eat-perm", "1,x"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --eat-perm must be comma-separated integers: '1,x'\n"
