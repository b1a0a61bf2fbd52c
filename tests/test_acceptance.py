"""Acceptance criteria, one test per criterion.

Each test prints `ACCEPTANCE <name>: PASS|FAIL` so the suite doubles as a
checklist.  Tolerances are pinned here and nowhere else.
"""
import statistics
import time

import numpy as np
import pytest

from sddpkit.cli import cli_main
from sddpkit.cuts import CutPool
from sddpkit.engine import (
    EngineConfig,
    RegularizationSchedule,
    SddpState,
    Trajectory,
    backward_pass,
    forward_pass,
    init_state,
    iterate,
)
from sddpkit.model import ScenarioPath, save_instance
from sddpkit.oracle import build_and_solve_extensive_form, exact_value_function
from sddpkit.simplex import solve_standard_lp
from sddpkit.storage import StorageNetworkParams, generate_storage_instance
from sddpkit.subproblem import (
    BundledSolver,
    SubproblemSpec,
    complementarity_gap,
    verify_residuals,
)
from support import (
    random_recourse_instance,
    resource_grid,
    vertex_enumeration_optimum,
)

REL_GAP_TOL = 1e-6
MAX_ITERATIONS = 500
PER_INSTANCE_SECONDS = 60.0

STAGEWISE_SEEDS = list(range(100, 110))
MARKOV_SEEDS = list(range(200, 210))


def _announce(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")


def _relative_gap(lb: float, v_star: float) -> float:
    return abs(lb - v_star) / max(1.0, abs(v_star))


def _run_to_convergence(problem, v_star: float, regularized: bool, seed: int):
    config = EngineConfig(
        iterations=MAX_ITERATIONS,
        seed=seed,
        regularized=regularized,
        schedule=RegularizationSchedule(1.0, 0.95),
        ub_every=0,
    )
    state = init_state(problem, config)
    start = time.perf_counter()
    reached = None
    for k in range(MAX_ITERATIONS):
        stats = iterate(state, k)
        if _relative_gap(stats.lower_bound, v_star) <= REL_GAP_TOL:
            reached = k
            break
    elapsed = time.perf_counter() - start
    return state, reached, elapsed


@pytest.fixture(scope="module")
def convergence_suite():
    """Runs criteria 1-2's instance suite once; later criteria reuse it."""
    results = {}
    for markov, seeds in ((False, STAGEWISE_SEEDS), (True, MARKOV_SEEDS)):
        for seed in seeds:
            problem, box = random_recourse_instance(seed, markov=markov)
            v_star = build_and_solve_extensive_form(problem)
            entry = {"problem": problem, "box": box, "v_star": v_star, "runs": {}}
            for regularized in (False, True):
                state, reached, elapsed = _run_to_convergence(
                    problem, v_star, regularized, seed
                )
                entry["runs"][regularized] = {
                    "state": state,
                    "reached": reached,
                    "elapsed": elapsed,
                }
            results[(markov, seed)] = entry
    return results


def test_oracle_convergence_stagewise(convergence_suite):
    ok = True
    for seed in STAGEWISE_SEEDS:
        entry = convergence_suite[(False, seed)]
        for regularized in (False, True):
            run = entry["runs"][regularized]
            ok &= run["reached"] is not None and run["reached"] < MAX_ITERATIONS
            ok &= run["elapsed"] <= PER_INSTANCE_SECONDS
    _announce("oracle-convergence-stagewise", ok)
    for seed in STAGEWISE_SEEDS:
        entry = convergence_suite[(False, seed)]
        for regularized in (False, True):
            run = entry["runs"][regularized]
            assert run["reached"] is not None, (
                f"seed {seed} regularized={regularized} did not reach "
                f"{REL_GAP_TOL} within {MAX_ITERATIONS} iterations"
            )
            assert run["elapsed"] <= PER_INSTANCE_SECONDS


def test_oracle_convergence_markov(convergence_suite):
    ok = True
    for seed in MARKOV_SEEDS:
        entry = convergence_suite[(True, seed)]
        for regularized in (False, True):
            run = entry["runs"][regularized]
            ok &= run["reached"] is not None and run["reached"] < MAX_ITERATIONS
            ok &= run["elapsed"] <= PER_INSTANCE_SECONDS
    _announce("oracle-convergence-markov", ok)
    for seed in MARKOV_SEEDS:
        entry = convergence_suite[(True, seed)]
        for regularized in (False, True):
            run = entry["runs"][regularized]
            assert run["reached"] is not None, (
                f"markov seed {seed} regularized={regularized} did not "
                f"converge within {MAX_ITERATIONS} iterations"
            )
            assert run["elapsed"] <= PER_INSTANCE_SECONDS


def test_lower_bound_validity_and_monotonicity(convergence_suite):
    ok = True
    for entry in convergence_suite.values():
        v_star = entry["v_star"]
        tol = REL_GAP_TOL * max(1.0, abs(v_star))
        for run in entry["runs"].values():
            report = run["state"].report
            ok &= all(lb <= v_star + tol for lb in report.lower_bounds)
            ok &= report.monotone_violations() == []
    _announce("lower-bound-validity-monotonicity", ok)
    for key, entry in convergence_suite.items():
        v_star = entry["v_star"]
        tol = REL_GAP_TOL * max(1.0, abs(v_star))
        for regularized, run in entry["runs"].items():
            report = run["state"].report
            assert all(lb <= v_star + tol for lb in report.lower_bounds), (
                f"{key} regularized={regularized}: bound exceeded optimum"
            )
            assert report.monotone_violations() == []


@pytest.mark.slow
def test_cut_validity_against_exact_value_functions(convergence_suite):
    # grid-check every stored cut on a representative sub-suite
    subset = [(False, 100), (False, 101), (False, 102), (True, 200), (True, 201)]
    ok = True
    worst = -np.inf
    for key in subset:
        entry = convergence_suite[key]
        problem = entry["problem"]
        grid = resource_grid(entry["box"], 10)
        pool = entry["runs"][False]["state"].pool
        for t in range(problem.T):
            if grid.shape[1] != problem.resource_dims[t]:
                grid_t = resource_grid(
                    entry["box"][: problem.resource_dims[t]], 10
                )
            else:
                grid_t = grid
            for info in range(pool.n_info[t]):
                cuts = pool.cuts_at(t, info)
                if not cuts:
                    continue
                exact = np.array(
                    [
                        exact_value_function(problem, t, info, R)
                        for R in grid_t
                    ]
                )
                for cut in cuts:
                    values = cut.alpha + (grid_t - cut.anchor) @ cut.beta
                    gap = float((values - exact).max())
                    worst = max(worst, gap)
                    ok &= gap <= 1e-6
    _announce("cut-validity", ok)
    assert ok, f"a cut overshoots the exact value function by {worst}"


def test_backward_slopes_match_finite_differences(convergence_suite):
    entry = convergence_suite[(False, 103)]
    problem = entry["problem"]
    state = entry["runs"][False]["state"]
    box = entry["box"]
    rng = np.random.default_rng(0)
    h = 1e-5
    checked = 0
    attempts = 0
    ok = True
    while checked < 20 and attempts < 200:
        attempts += 1
        probes = [
            rng.uniform(0.15, 0.85, size=problem.resource_dims[t]) * box
            for t in range(problem.T)
        ]
        fake = Trajectory(path=ScenarioPath(tuple([0] * problem.T), 1.0))
        fake.resource = probes + [np.zeros(0)]
        before = [len(state.pool.cuts_at(t, 0)) for t in range(problem.T)]
        backward_pass(state, fake, 999)
        for t in range(problem.T):
            if checked >= 20:
                break
            cut = state.pool.cuts_at(t, 0)[-1]
            R = probes[t]
            fd = np.zeros_like(R)
            differentiable = True
            for i in range(R.shape[0]):
                e = np.zeros_like(R)
                e[i] = h
                up = exact_value_function(problem, t, 0, R + e)
                down = exact_value_function(problem, t, 0, R - e)
                mid = exact_value_function(problem, t, 0, R)
                fd[i] = (up - down) / (2 * h)
                left = (mid - down) / h
                right = (up - mid) / h
                if abs(left - right) > 1e-6 * (1.0 + abs(fd[i])):
                    differentiable = False
            if not differentiable:
                continue
            err = np.abs(cut.beta - fd).max(initial=0.0)
            ok &= err <= 1e-4
            checked += 1
    _announce("dual-slope-finite-difference", ok and checked >= 20)
    assert checked >= 20, "could not find 20 differentiable probe points"
    assert ok


def test_subproblem_solver_oracle():
    ok = True
    count = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        m = int(rng.integers(4, 9))
        n = int(rng.integers(m + 2, 15))
        A = rng.standard_normal((m, n))
        x0 = rng.uniform(0.5, 2.0, size=n)
        b = A @ x0
        c = np.abs(rng.standard_normal(n))
        spec = SubproblemSpec(c=c, A=A, rhs=b)
        sol = BundledSolver().solve(spec)
        oracle = vertex_enumeration_optimum(A, b, c)
        assert oracle is not None
        ok &= sol.status.value == "optimal"
        ok &= abs(sol.objective - oracle[0]) <= 1e-8 * (1.0 + abs(oracle[0]))
        ok &= verify_residuals(sol, spec, 1e-8)
        ok &= complementarity_gap(sol) <= 1e-8
        count += 1
    _announce("subproblem-solver-oracle", ok and count == 100)
    assert count == 100
    assert ok


@pytest.fixture(scope="module")
def bench_artifacts(tmp_path_factory):
    """Runs the regularization benchmark via the CLI bench command."""
    root = tmp_path_factory.mktemp("bench")
    start = time.perf_counter()
    sizes = (5, 10, 20)
    summaries = {}
    for n_storage in sizes:
        params = StorageNetworkParams(n_storage=n_storage, T=24, n_regimes=3)
        problem = generate_storage_instance(params, np.random.default_rng(n_storage))
        inst = root / f"storage{n_storage}.json"
        save_instance(problem, inst)
        out_dir = root / f"out{n_storage}"
        code = cli_main(
            [
                "bench",
                str(inst),
                "--seeds",
                "0,1,2,3,4",
                "--iters",
                "40",
                "--rho0-grid",
                "1",
                "--decay-grid",
                "0.95",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        summaries[n_storage] = out_dir
    elapsed = time.perf_counter() - start
    return {"root": root, "dirs": summaries, "elapsed": elapsed, "sizes": sizes}


def _parse_summary(path):
    rows = path.read_text().strip().splitlines()[1:]
    out = {"plain": {}, "regularized": {}}
    for row in rows:
        method, rho0, decay, seed, final_lb, iters = row.split(",")
        out[method][int(seed)] = (float(final_lb), int(iters))
    return out


@pytest.mark.slow
def test_regularization_benchmark(bench_artifacts):
    ok = bench_artifacts["elapsed"] <= 1800.0
    medians = {}
    for n_storage in bench_artifacts["sizes"]:
        out_dir = bench_artifacts["dirs"][n_storage]
        summary = _parse_summary(out_dir / "summary.csv")
        assert set(summary["plain"]) == {0, 1, 2, 3, 4}
        assert set(summary["regularized"]) == {0, 1, 2, 3, 4}
        for seed in range(5):
            pair = out_dir / f"bounds_r1_d0.95_s{seed}.csv"
            assert pair.exists()
        plain_median = statistics.median(
            iters for _, iters in summary["plain"].values()
        )
        reg_median = statistics.median(
            iters for _, iters in summary["regularized"].values()
        )
        medians[n_storage] = (plain_median, reg_median)
        print(
            f"benchmark n_storage={n_storage}: plain median iters-to-99% = "
            f"{plain_median}, regularized = {reg_median}"
        )

    # determinism per seed: re-run one size/seed pair and compare trajectories
    n_storage = 5
    params = StorageNetworkParams(n_storage=n_storage, T=24, n_regimes=3)
    problem = generate_storage_instance(params, np.random.default_rng(n_storage))
    inst = bench_artifacts["root"] / "repeat.json"
    save_instance(problem, inst)
    repeat_dir = bench_artifacts["root"] / "repeat_out"
    code = cli_main(
        [
            "bench",
            str(inst),
            "--seeds",
            "0",
            "--iters",
            "40",
            "--out-dir",
            str(repeat_dir),
        ]
    )
    assert code == 0
    first = (bench_artifacts["dirs"][5] / "bounds_r1_d0.95_s0.csv").read_bytes()
    again = (repeat_dir / "bounds_r1_d0.95_s0.csv").read_bytes()
    ok &= first == again

    plain20, reg20 = medians[20]
    ok &= reg20 <= plain20
    _announce("regularization-benchmark", ok)
    print(f"benchmark wall time: {bench_artifacts['elapsed']:.1f}s")
    assert first == again, "bench trajectories are not deterministic per seed"
    assert bench_artifacts["elapsed"] <= 1800.0
    assert reg20 <= plain20, (
        f"regularized median {reg20} exceeds plain median {plain20} at the "
        "largest size"
    )


def test_solve_determinism_and_worker_independence(tmp_path):
    params = StorageNetworkParams(n_storage=3, T=8, n_regimes=2, n_nodes=2, n_lines=2)
    problem = generate_storage_instance(params, np.random.default_rng(0))
    inst = tmp_path / "inst.json"
    save_instance(problem, inst)

    def solve(tag, workers):
        cuts = tmp_path / f"cuts_{tag}.json"
        table = tmp_path / f"table_{tag}.csv"
        code = cli_main(
            [
                "solve",
                str(inst),
                "--out-cuts",
                str(cuts),
                "--out-table",
                str(table),
                "--iters",
                "12",
                "--seed",
                "7",
                "--ub-every",
                "5",
                "--ub-samples",
                "10",
                "--workers",
                str(workers),
            ]
        )
        assert code == 0
        return cuts.read_bytes(), table.read_text()

    def strip_wall(table_text):
        lines = table_text.strip().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    cuts_a, table_a = solve("a", 1)
    cuts_b, table_b = solve("b", 1)
    cuts_c, table_c = solve("c", 4)
    ok = (
        cuts_a == cuts_b == cuts_c
        and strip_wall(table_a) == strip_wall(table_b) == strip_wall(table_c)
    )
    _announce("solve-determinism", ok)
    assert cuts_a == cuts_b, "identical runs produced different cut files"
    assert cuts_a == cuts_c, "worker count changed the cut file"
    assert strip_wall(table_a) == strip_wall(table_b)
    assert strip_wall(table_a) == strip_wall(table_c)


def test_schedule_conformance():
    schedule = RegularizationSchedule(1.0, 0.95)
    ok = all(schedule.value(k) == 1.0 * 0.95**k for k in range(301))
    problem, _ = random_recourse_instance(300, T=2)
    config = EngineConfig(
        iterations=40,
        seed=0,
        regularized=True,
        schedule=schedule,
        ub_every=0,
    )
    from sddpkit.engine import run

    _, report = run(problem, config)
    ok &= all(
        rho == 1.0 * 0.95**k for k, rho in zip(report.iterations, report.rhos)
    )
    _announce("schedule-conformance", ok)
    assert ok
