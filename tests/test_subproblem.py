import json

import numpy as np
import pytest

from sddpkit import simplex
from sddpkit.errors import FormatVersionError, MalformedFileError
from sddpkit.subproblem import (
    BundledSolver,
    SolveStatus,
    SubproblemSpec,
    complementarity_gap,
    kkt_residuals,
    load_subproblem,
    save_subproblem,
    verify_residuals,
)
from support import FIXTURES


def simple_spec():
    return SubproblemSpec(
        c=np.array([1.0, 0.0]), A=np.array([[1.0, 1.0]]), rhs=np.array([2.0])
    )


def test_spec_shape_checks():
    with pytest.raises(ValueError):
        SubproblemSpec(c=np.array([1.0]), A=np.array([[1.0, 1.0]]), rhs=np.array([2.0]))
    with pytest.raises(ValueError):
        SubproblemSpec(
            c=np.array([1.0, 0.0]), A=np.array([[1.0, 1.0]]), rhs=np.array([2.0, 1.0])
        )
    with pytest.raises(ValueError):
        SubproblemSpec(
            c=np.array([1.0, 0.0]),
            A=np.array([[1.0, 1.0]]),
            rhs=np.array([2.0]),
            quad=(-1.0, np.eye(2)),
        )


def test_spec_validate_flags_indefinite_quadratic():
    spec = SubproblemSpec(
        c=np.array([0.0, 0.0]),
        A=np.array([[1.0, 1.0]]),
        rhs=np.array([1.0]),
        quad=(1.0, np.array([[1.0, 0.0], [0.0, -1.0]])),
    )
    assert any("positive semidefinite" in v for v in spec.validate())
    ok = SubproblemSpec(
        c=np.array([0.0, 0.0]),
        A=np.array([[1.0, 1.0]]),
        rhs=np.array([1.0]),
        quad=(1.0, np.eye(2)),
    )
    assert ok.validate() == []


def test_solve_qp_routes_zero_penalty_to_lp():
    spec = SubproblemSpec(
        c=np.array([1.0, 0.0]),
        A=np.array([[1.0, 1.0]]),
        rhs=np.array([2.0]),
        quad=(0.0, np.eye(2)),
    )
    via_qp = BundledSolver().solve(spec)
    via_lp = BundledSolver().solve(SubproblemSpec(c=spec.c, A=spec.A, rhs=spec.rhs))
    assert via_qp.status is SolveStatus.OPTIMAL
    assert via_qp.objective == via_lp.objective
    for name in ("y", "duals", "basis"):
        assert np.array_equal(getattr(via_qp, name), getattr(via_lp, name))


def test_verify_residuals_exact_solution():
    spec = simple_spec()
    sol = BundledSolver().solve(spec)
    assert verify_residuals(sol, spec, 1e-8)


def test_verify_residuals_detects_perturbation():
    spec = simple_spec()
    sol = BundledSolver().solve(spec)
    sol.y = sol.y + 1e-4
    assert not verify_residuals(sol, spec, 1e-8)


def test_verify_residuals_is_relative():
    # Same absolute error, rhs scaled by 1e6: ratio 1e-4/(1+1e6) ~ 1e-10.
    spec = SubproblemSpec(
        c=np.array([1.0]), A=np.array([[1.0]]), rhs=np.array([1e6])
    )
    sol = BundledSolver().solve(spec)
    sol.y = sol.y + 1e-4
    assert verify_residuals(sol, spec, 1e-8)
    small = SubproblemSpec(
        c=np.array([1.0]), A=np.array([[1.0]]), rhs=np.array([1.0])
    )
    sol_small = BundledSolver().solve(small)
    sol_small.y = sol_small.y + 1e-4
    assert not verify_residuals(sol_small, small, 1e-8)


def test_complementarity_gap_zero_for_basic_solutions():
    # The solvers zero the reduced cost of every basic and superbasic
    # column, and every other variable is zero: the gap is exactly zero.
    sol = BundledSolver().solve(simple_spec())
    assert complementarity_gap(sol) == 0.0
    # Interior optimum y = (0.5, 0.25, 1.25): more positive entries than
    # rows, so two of them are superbasic.
    interior = SubproblemSpec(
        c=np.array([-1.0, -0.5, 0.0]),
        A=np.array([[1.0, 1.0, 1.0]]),
        rhs=np.array([2.0]),
        quad=(1.0, np.diag([2.0, 2.0, 0.0])),
    )
    qp_sol = BundledSolver().solve(interior)
    assert np.count_nonzero(qp_sol.y) > interior.n_rows
    assert complementarity_gap(qp_sol) == 0.0


def test_kkt_residuals_lp():
    spec = simple_spec()
    sol = BundledSolver().solve(spec)
    res = kkt_residuals(sol, spec)
    assert res["stationarity"] <= 1e-10
    assert res["feasibility"] <= 1e-10
    assert res["complementarity"] <= 1e-10
    assert res["dual_sign"] <= 1e-10


def test_bundled_solver_dispatch():
    solver = BundledSolver()
    spec = simple_spec()
    lp_sol = solver.solve(spec)
    direct = simplex.solve_standard_lp(spec.A, spec.rhs, spec.c)
    for name, want in (("y", direct.x), ("duals", direct.duals), ("basis", direct.basis)):
        assert np.array_equal(getattr(lp_sol, name), want)
    quad_spec = SubproblemSpec(
        c=np.array([-1.0, 0.0]),
        A=np.array([[1.0, 1.0]]),
        rhs=np.array([2.0]),
        quad=(1.0, np.diag([1.0, 0.0])),
    )
    qp_sol = solver.solve(quad_spec)
    assert qp_sol.status is SolveStatus.OPTIMAL
    # interior in y1: curvature pulls the minimum to y1 = 1
    assert qp_sol.y[0] == pytest.approx(1.0, abs=1e-8)


def test_dump_writes_readable_file(tmp_path):
    # A dump loads back to the same arrays, start basis and context, and
    # replays to the same solution.
    quad_spec = SubproblemSpec(
        c=np.array([-1.0, 0.0]),
        A=np.array([[1.0, 1.0]]),
        rhs=np.array([2.0]),
        quad=(0.5, np.diag([1.0, 0.0])),
    )
    path = tmp_path / "dump.json"
    for spec in (simple_spec(), quad_spec):
        sol = BundledSolver().solve(spec)
        save_subproblem(spec, path, sol.basis, {"key": ["f", 1, 0]})
        loaded, start, context = load_subproblem(path)
        for name in ("A", "rhs", "c"):
            assert np.array_equal(getattr(loaded, name), getattr(spec, name))
        assert (loaded.quad is None) == (spec.quad is None)
        if spec.quad is not None:
            assert loaded.quad[0] == spec.quad[0]
            assert np.array_equal(loaded.quad[1], spec.quad[1])
        assert np.array_equal(start, sol.basis)
        assert context == {"key": ["f", 1, 0]}
        replay = BundledSolver().solve(loaded, start)
        assert replay.status is SolveStatus.OPTIMAL
        assert np.array_equal(replay.y, sol.y)
    save_subproblem(simple_spec(), path)
    _, start, context = load_subproblem(path)
    assert start is None
    assert context == {}


def test_load_subproblem_rejects_bad_files(tmp_path):
    path = tmp_path / "dump.json"
    save_subproblem(simple_spec(), path)
    obj = json.loads(path.read_text())
    path.write_text(json.dumps(dict(obj, format="mslp-cuts")))
    with pytest.raises(FormatVersionError):
        load_subproblem(path)
    obj["A"]["rows"] = [5, 0]  # outside the m = 1 rows
    path.write_text(json.dumps(obj))
    with pytest.raises(MalformedFileError):
        load_subproblem(path)
    path.write_text("[1, 2]")
    with pytest.raises(MalformedFileError):
        load_subproblem(path)


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.glob("*.json")), ids=lambda path: path.name
)
def test_fixture_is_a_replay_file(path):
    # Every captured solver input is a replay file that says what it is.
    spec, start, context = load_subproblem(path)
    assert context["description"]
    assert start is None or start.shape == (spec.n_rows,)
