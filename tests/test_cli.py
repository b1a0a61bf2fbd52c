import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sddpkit import engine, oracle
from sddpkit.cli import cli_main
from sddpkit.errors import NumericalBreakdown
from sddpkit.model import save_instance
from sddpkit.storage import StorageNetworkParams
from sddpkit.subproblem import BundledSolver, SolveStatus, load_subproblem
from support import newsvendor, random_recourse_instance


@pytest.fixture
def news_file(tmp_path):
    path = tmp_path / "news.json"
    save_instance(newsvendor(), path)
    return path


def test_generate_writes_instance(tmp_path):
    out = tmp_path / "inst.json"
    code = cli_main(
        [
            "generate",
            "--out",
            str(out),
            "--n-storage",
            "2",
            "--t-periods",
            "3",
            "--n-regimes",
            "2",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["format"] == "mslp-instance"
    assert obj["T"] == 3


def test_generate_with_params_file(tmp_path):
    params = StorageNetworkParams(n_storage=2, T=2, n_regimes=2, n_nodes=2, n_lines=2)
    pfile = tmp_path / "params.json"
    params.save(pfile)
    out = tmp_path / "inst.json"
    assert cli_main(["generate", "--params", str(pfile), "--out", str(out)]) == 0
    assert out.exists()


def test_solve_writes_cuts_and_table(tmp_path, news_file, capsys):
    cuts = tmp_path / "cuts.json"
    table = tmp_path / "bounds.csv"
    code = cli_main(
        [
            "solve",
            str(news_file),
            "--out-cuts",
            str(cuts),
            "--out-table",
            str(table),
            "--iters",
            "15",
            "--seed",
            "0",
            "--ub-every",
            "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "final_lower_bound: 2.000000" in out
    lines = table.read_text().splitlines()
    assert lines[0].startswith("iter,lower_bound,rho_k")
    assert json.loads(cuts.read_text())["format"] == "mslp-cuts"


def test_solve_regularized_rho_column(tmp_path, news_file):
    table = tmp_path / "bounds.csv"
    cli_main(
        [
            "solve",
            str(news_file),
            "--out-table",
            str(table),
            "--iters",
            "10",
            "--regularized",
            "--rho0",
            "1",
            "--decay",
            "0.95",
            "--ub-every",
            "0",
        ]
    )
    rows = table.read_text().strip().splitlines()[1:]
    for k, row in enumerate(rows):
        assert float(row.split(",")[2]) == 1.0 * 0.95**k


def test_verify_ok_and_report(tmp_path, news_file, capsys):
    cuts = tmp_path / "cuts.json"
    cli_main(
        ["solve", str(news_file), "--out-cuts", str(cuts), "--iters", "20",
         "--ub-every", "0"]
    )
    report = tmp_path / "verify.txt"
    code = cli_main(
        ["verify", str(news_file), str(cuts), "--out", str(report)]
    )
    assert code == 0
    text = report.read_text()
    assert "lb: 2.000000" in text
    assert "v_star: 2.000000" in text
    assert "gap: 0.000000" in text
    assert "status: ok" in text


def test_verify_flags_bound_violation(tmp_path, news_file):
    # hand-forged cut far above the true value function
    cuts = tmp_path / "bad_cuts.json"
    cuts.write_text(
        json.dumps(
            {
                "format": "mslp-cuts",
                "version": 1,
                "resource_dims": [1],
                "n_info": [1],
                "cuts": [
                    {
                        "t": 0,
                        "info": 0,
                        "alpha": 100.0,
                        "beta": [0.0],
                        "anchor": [0.0],
                        "born_iteration": 0,
                    }
                ],
            }
        )
    )
    code = cli_main(["verify", str(news_file), str(cuts)])
    assert code == 1


def test_evaluate_monte_carlo_and_exact(tmp_path, news_file, capsys):
    cuts = tmp_path / "cuts.json"
    cli_main(
        ["solve", str(news_file), "--out-cuts", str(cuts), "--iters", "20",
         "--ub-every", "0"]
    )
    assert cli_main(
        ["evaluate", str(news_file), str(cuts), "--samples", "200"]
    ) == 0
    out = capsys.readouterr().out
    assert "policy_cost_mean: 2.000000" in out
    assert cli_main(["evaluate", str(news_file), str(cuts), "--exact"]) == 0
    out = capsys.readouterr().out
    assert "policy_cost_exact: 2.000000" in out


def test_evaluate_breakdown_writes_debug_dump(
    tmp_path, news_file, capsys, monkeypatch
):
    cuts = tmp_path / "cuts.json"
    cli_main(
        ["solve", str(news_file), "--out-cuts", str(cuts), "--iters", "5",
         "--ub-every", "0"]
    )

    def breaks(self, spec, start_basis=None):
        raise NumericalBreakdown("basis factorization failed")

    solve = BundledSolver.solve
    monkeypatch.setattr(BundledSolver, "solve", breaks)
    dump_dir = tmp_path / "dumps"
    code = cli_main(
        ["evaluate", str(news_file), str(cuts), "--samples", "4",
         "--debug-dump", str(dump_dir)]
    )
    assert code == 1
    message = "stage 0 outcome -1: basis factorization failed"
    assert message in capsys.readouterr().err
    spec, start, context = load_subproblem(dump_dir / "subproblem_policy_0_-1.json")
    assert context == {"key": ["policy", 0, -1], "error": message}
    assert solve(BundledSolver(), spec, start).status is SolveStatus.OPTIMAL


def assert_one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '{"n_storage": "x"}',
        '{"n_storage": 2.5}',
        '{"markov": "no"}',
        '{"p_stay": 2.0}',
        '{"bogus": 1}',
    ],
    ids=["not-an-object", "string-count", "float-count", "string-flag",
         "p-stay-above-one", "unknown-field"],
)
def test_bad_params_file_exits_one(tmp_path, capsys, text):
    pfile = tmp_path / "params.json"
    StorageNetworkParams(n_storage=2, T=2, n_regimes=2).save(pfile)
    if text.startswith("{"):
        text = json.dumps({**json.loads(pfile.read_text()), **json.loads(text)})
    pfile.write_text(text)
    out = tmp_path / "inst.json"
    assert cli_main(["generate", "--params", str(pfile), "--out", str(out)]) == 1
    assert_one_error_line(capsys)
    assert not out.exists()


def test_bad_params_flag_exits_one(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert cli_main(["generate", "--out", str(out), "--p-stay", "2"]) == 1
    assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("t", -1), ("t", 99), ("info", 7)])
def test_cut_outside_the_pool_exits_one(tmp_path, capsys, field, value):
    inst = tmp_path / "inst.json"
    cuts = tmp_path / "cuts.json"
    assert cli_main(
        ["generate", "--out", str(inst), "--n-storage", "2", "--t-periods", "3",
         "--seed", "1"]
    ) == 0
    assert cli_main(
        ["solve", str(inst), "--iters", "2", "--ub-every", "0", "--out-cuts",
         str(cuts)]
    ) == 0
    obj = json.loads(cuts.read_text())
    obj["cuts"][0][field] = value
    cuts.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli_main(["evaluate", str(inst), str(cuts), "--samples", "3"]) == 1
    assert_one_error_line(capsys)


@pytest.fixture(scope="module")
def foreign_cuts(tmp_path_factory):
    """A 6-period instance and the cut file of the 4-period instance made
    with the same generator settings."""
    d = tmp_path_factory.mktemp("foreign")
    for name, periods in (("short", "4"), ("long", "6")):
        assert cli_main(
            ["generate", "--out", str(d / f"{name}.json"), "--n-storage", "2",
             "--t-periods", periods, "--n-regimes", "2", "--seed", "1"]
        ) == 0
    assert cli_main(
        ["solve", str(d / "short.json"), "--plain", "--iters", "3", "--ub-every",
         "0", "--out-cuts", str(d / "cuts.json")]
    ) == 0
    return d / "long.json", d / "cuts.json"


@pytest.mark.parametrize(
    "command, flags",
    [("verify", []), ("evaluate", ["--samples", "5"]), ("evaluate", ["--exact"])],
    ids=["verify", "evaluate-samples", "evaluate-exact"],
)
def test_cut_file_of_another_instance_exits_one(foreign_cuts, capsys, command, flags):
    # A pool laid out for 4 stages would index past them on a 6-stage
    # instance (evaluate) or bound another problem (verify).
    inst, cuts = foreign_cuts
    capsys.readouterr()
    assert cli_main([command, str(inst), str(cuts), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cut file "), err
    assert "resource_dims (2, 2, 2, 2), n_info (1, 2, 2, 2);" in err[0]
    assert "resource_dims (2, 2, 2, 2, 2, 2), n_info (1, 2, 2, 2, 2, 2)" in err[0]


def test_cut_file_independent_of_inherited_blas_threads(tmp_path):
    inst = tmp_path / "inst.json"
    assert cli_main(
        ["generate", "--out", str(inst), "--n-storage", "10", "--seed", "10",
         "--t-periods", "24", "--n-regimes", "3"]
    ) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    cut_bytes = []
    for threads in ("1", "2"):
        cuts = tmp_path / f"cuts_{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        subprocess.run(
            [sys.executable, "-m", "sddpkit.cli", "solve", str(inst),
             "--regularized", "--rho0", "1", "--decay", "0.95", "--iters", "10",
             "--seed", "0", "--ub-every", "0", "--out-cuts", str(cuts)],
            env=env,
            check=True,
            capture_output=True,
        )
        cut_bytes.append(cuts.read_bytes())
    assert cut_bytes[0] == cut_bytes[1]


def test_bench_emits_tables_and_summary(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    p, _ = random_recourse_instance(3, T=2)
    save_instance(p, inst)
    out_dir = tmp_path / "bench"
    code = cli_main(
        [
            "bench",
            str(inst),
            "--seeds",
            "0,1",
            "--iters",
            "8",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "plain_median_iters_to_threshold" in out
    assert (out_dir / "summary.csv").exists()
    pair = out_dir / "bounds_r1_d0.95_s0.csv"
    assert pair.exists()
    header = pair.read_text().splitlines()[0]
    assert header == "iter,plain_lb,regularized_lb"


def test_bench_prints_median_seconds_to_threshold(tmp_path, capsys, monkeypatch):
    # Per seed, the wall time of the iterations through the one that hits
    # the threshold; then the median over seeds.  summary.csv keeps its
    # six columns.
    inst = tmp_path / "inst.json"
    generate = ["generate", "--out", str(inst), "--n-storage", "2"]
    generate += ["--t-periods", "4", "--n-regimes", "2", "--seed", "5"]
    assert cli_main(generate) == 0
    reports = []
    inner = engine.run

    def recording(problem, config):
        pool, report = inner(problem, config)
        reports.append(report)
        return pool, report

    monkeypatch.setattr(engine, "run", recording)
    out_dir = tmp_path / "bench"
    bench = ["bench", str(inst), "--seeds", "0,1,2", "--iters", "6"]
    assert cli_main(bench + ["--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    rows = [r.split(",") for r in (out_dir / "summary.csv").read_text().splitlines()]
    assert all(len(r) == 6 for r in rows)
    hits = {(r[0], int(r[3])): int(r[5]) for r in rows[1:]}
    plain, regularized = reports[:3], reports[3:]
    for method, runs in (("plain", plain), ("regularized", regularized)):
        seconds = [
            sum(report.wall_ms[: hits[(method, seed)] + 1]) / 1e3
            for seed, report in enumerate(runs)
        ]
        line = f"{method}_median_seconds_to_threshold: {statistics.median(seconds):.6f}"
        assert line in out.splitlines()


def test_bench_tuning_grid_emits_nine_trajectories(tmp_path):
    inst = tmp_path / "inst.json"
    p, _ = random_recourse_instance(5, T=2)
    save_instance(p, inst)
    out_dir = tmp_path / "grid"
    code = cli_main(
        [
            "bench",
            str(inst),
            "--seeds",
            "0",
            "--iters",
            "5",
            "--rho0-grid",
            "1,10,100",
            "--decay-grid",
            "0.9,0.95,0.99",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    assert len(list(out_dir.glob("bounds_*.csv"))) == 9
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert len([r for r in summary if r.startswith("regularized")]) == 9


def test_solve_with_diagonal_q_scale(tmp_path, news_file):
    qfile = tmp_path / "q.json"
    qfile.write_text(json.dumps([[2.0]]))
    table = tmp_path / "bounds.csv"
    code = cli_main(
        [
            "solve",
            str(news_file),
            "--out-table",
            str(table),
            "--iters",
            "12",
            "--regularized",
            "--q-scale",
            f"diag:{qfile}",
            "--ub-every",
            "0",
        ]
    )
    assert code == 0
    final = float(table.read_text().strip().splitlines()[-1].split(",")[1])
    assert final == pytest.approx(2.0, abs=1e-6)


def test_missing_file_exits_one(capsys):
    code = cli_main(["solve", "/nonexistent/path.json"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_traced_benchmark_wraps_every_planned_name(monkeypatch):
    # The benchmark's --trace run wraps these names where the package looks
    # them up; a refactor that removes or renames one fails here first.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    loader = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    wrapped = []  # every name wrapped so far, restored even if install fails

    def recording_wrap(tracer, owner, attr, *rest):
        inner = real_wrap(tracer, owner, attr, *rest)
        wrapped.append((owner, attr, inner))
        return inner

    real_wrap = spans._wrap
    monkeypatch.setattr(spans, "_wrap", recording_wrap)
    try:
        saved = spans.install(spans.Tracer())
        assert saved == wrapped
        assert len({(id(owner), attr) for owner, attr, _ in saved}) == 18
        for owner, attr, inner in saved:
            assert getattr(owner, attr).__wrapped__ is inner
    finally:
        spans.uninstall(wrapped)
    for owner, attr, inner in saved:
        assert getattr(owner, attr) is inner


def test_benchmark_hooks_see_a_solve_and_an_evaluate(tmp_path, monkeypatch):
    # The benchmark times engine.run, engine.iterate and
    # engine.estimate_upper_bound, and counts calls of traced names, where
    # the package looks them up.  A name the package stops calling through
    # its module would read as zero there, not fail.
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py extends it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    loader = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, "perfbench_run", bench)  # for its dataclasses
    loader.loader.exec_module(bench)
    inst, cuts = str(tmp_path / "inst.json"), str(tmp_path / "cuts.json")
    small = ["--n-storage", "2", "--t-periods", "4", "--n-regimes", "2", "--seed", "1"]
    assert cli_main(["generate", "--out", inst, *small]) == 0
    tracer = bench.Tracer()
    saved = bench.install(tracer)
    clock = bench.Clock(engine)
    try:
        solve = clock.reset()
        argv = ["solve", inst, "--plain", "--iters", "3", "--ub-every", "0"]
        assert cli_main([*argv, "--out-cuts", cuts]) == 0
        evaluate = clock.reset()
        assert cli_main(["evaluate", inst, cuts, "--samples", "2"]) == 0
    finally:
        clock.restore()
        bench.uninstall(saved)
    assert len(solve.iter_ends) == 3
    assert evaluate.ub_seconds > 0
    for name in (
        "stages.policy_subproblem.calls",
        "cuts.embed.rows",
        "subproblem.solve.lp_calls",
        "simplex.lu_factor.calls",
    ):
        assert tracer.counts[name] > 0, name


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli_main(["solve"])  # missing required instance argument
    assert exc.value.code == 2


def test_infeasible_instance_reports_stage(tmp_path, capsys):
    # stage-1 equality u + w = -1 is infeasible for any R >= 0
    import numpy as np

    from sddpkit.model import (
        MultistageProblem,
        ProcessKind,
        StageRealization,
        UncertaintyProcess,
    )

    stage0 = StageRealization(A=[[1.0, 1.0]], B=[[1.0, 0.0]], b=[3.0], c=[1.0, 0.0])
    bad = StageRealization(
        A=[[0.0, 1.0]], B=np.zeros((0, 2)), b=[-1.0], c=[1.0, 0.0]
    )
    process = UncertaintyProcess(
        kind=ProcessKind.STAGEWISE_INDEPENDENT,
        outcomes=((bad,),),
        probs=(np.array([1.0]),),
    )
    p = MultistageProblem(T=1, stage0=stage0, process=process, resource_dims=(1,))
    inst = tmp_path / "bad.json"
    save_instance(p, inst)
    code = cli_main(["solve", str(inst), "--iters", "2", "--ub-every", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert "stage 1" in err and "infeasible" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--iters", "0"], "error: iterations must be >= 1"),
        (["--decay", "1.5"], "error: decay must lie in (0, 1)"),
    ],
    ids=["zero-iterations", "decay-above-one"],
)
def test_engine_flag_out_of_range_exits_one(news_file, capsys, flags, message):
    assert cli_main(["solve", str(news_file), "--ub-every", "0", *flags]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seeds", ","], "expected a comma-separated list of numbers, got ','"),
        (["--seeds", "x"], "expected a comma-separated list of numbers, got 'x'"),
        (["--rho0-grid", "abc"], "expected a comma-separated list of numbers, got 'abc'"),
        (["--rho0-grid", ","], "expected a comma-separated list of numbers, got ','"),
        (["--threshold", "1.5"], "error: threshold must lie in (0, 1], got 1.5"),
        (["--threshold", "0"], "error: threshold must lie in (0, 1], got 0.0"),
    ],
    ids=["empty-seeds", "word-seed", "word-rho0", "empty-rho0", "threshold-above-one",
         "zero-threshold"],
)
def test_malformed_bench_flag_is_a_clean_error(tmp_path, news_file, capsys, flags, message):
    # A malformed list is a usage error (exit 2); a threshold outside
    # (0, 1] exits 1 with one error line; neither starts a run.
    argv = ["bench", str(news_file), "--iters", "2", "--out-dir", str(tmp_path / "b"), *flags]
    if message.startswith("error: "):
        assert cli_main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [message]
    else:
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(message)
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--out", "{dir}/inst.json", "--seed", "-1"],
        ["solve", "{news}", "--iters", "2", "--seed", "-1"],
        ["evaluate", "{news}", "{news}", "--samples", "2", "--seed", "-1"],
        ["bench", "{news}", "--iters", "2", "--out-dir", "{dir}/b", "--seeds", "0,-1"],
    ],
    ids=["generate", "solve", "evaluate", "bench"],
)
def test_negative_seed_is_a_usage_error(tmp_path, news_file, capsys, argv):
    # numpy rejects a negative seed with a traceback; argparse rejects it
    # first, with a usage line, and nothing is written.
    argv = [a.format(dir=tmp_path, news=news_file) for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    flag = argv[-2]
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"argument {flag}: expected a non-negative integer, got '-1'"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["news.json"]


@pytest.mark.parametrize("missing", ["--out-cuts", "--out-table"])
def test_solve_checks_output_dirs_before_training(
    tmp_path, news_file, capsys, monkeypatch, missing
):
    def no_training(*args, **kwargs):
        raise AssertionError("engine.run called")

    monkeypatch.setattr(engine, "run", no_training)
    outs = {"--out-cuts": tmp_path / "cuts.json", "--out-table": tmp_path / "bounds.csv"}
    outs[missing] = tmp_path / "missing" / outs[missing].name
    argv = ["solve", str(news_file), "--iters", "2", "--ub-every", "0"]
    for flag, path in outs.items():
        argv += [flag, str(path)]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {missing} {outs[missing]}: directory {outs[missing].parent} "
        "does not exist"
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["news.json"]


def test_verify_checks_output_dir_before_loading(
    tmp_path, news_file, capsys, monkeypatch
):
    def no_oracle(*args, **kwargs):
        raise AssertionError("extensive form solved")

    monkeypatch.setattr(oracle, "build_and_solve_extensive_form", no_oracle)
    out = tmp_path / "missing" / "verify.txt"
    # the cut file does not exist either: the output check comes first
    argv = ["verify", str(news_file), str(tmp_path / "cuts.json"), "--out", str(out)]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --out {out}: directory {out.parent} does not exist"
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["news.json"]


def test_negative_probability_rejected(tmp_path, capsys):
    # Probabilities [1.5, -0.5] sum to one; zero probabilities stay valid.
    from dataclasses import replace

    p = newsvendor()
    process = replace(p.process, probs=(np.array([1.5, -0.5]),))
    inst = tmp_path / "negative.json"
    save_instance(replace(p, process=process), inst)
    assert cli_main(["solve", str(inst), "--iters", "2", "--ub-every", "0"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: invalid problem: probs at stage 1 contains a negative probability"
    ]


def test_evaluate_zero_samples_exits_one(tmp_path, news_file, capsys):
    cuts = tmp_path / "cuts.json"
    cli_main(
        ["solve", str(news_file), "--out-cuts", str(cuts), "--iters", "3",
         "--ub-every", "0"]
    )
    capsys.readouterr()
    assert cli_main(["evaluate", str(news_file), str(cuts), "--samples", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: n_samples must be >= 1"]
    assert "nan" not in captured.out


@pytest.mark.parametrize(
    "text, reason",
    [
        ("[1,", "cannot parse Q scale file"),
        ('[["a"]]', "is malformed: could not convert string to float: 'a'"),
        ("[[1.0], [1.0]]", "Q scale has 2 stages, expected 1"),
    ],
    ids=["truncated", "string-entry", "wrong-stage-count"],
)
def test_bad_q_scale_file_exits_one(tmp_path, news_file, capsys, text, reason):
    qfile = tmp_path / "q.json"
    qfile.write_text(text)
    code = cli_main(
        ["solve", str(news_file), "--regularized", "--iters", "2",
         "--ub-every", "0", "--q-scale", f"diag:{qfile}"]
    )
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and reason in err[0], err
    if reason.startswith(("cannot", "is malformed")):
        assert str(qfile) in err[0]
