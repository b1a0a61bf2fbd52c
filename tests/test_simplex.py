import numpy as np
import pytest

from sddpkit import simplex
from sddpkit.qp import solve_standard_qp
from sddpkit.simplex import solve_standard_lp
from support import load_fixture, random_bounded_lp, vertex_enumeration_optimum


def test_one_simplex_vertex():
    res = solve_standard_lp(
        np.array([[1.0, 1.0]]), np.array([1.0]), np.array([-1.0, 0.0])
    )
    assert res.status == "optimal"
    assert np.allclose(res.x, [1.0, 0.0])
    assert res.objective == -1.0
    assert np.allclose(res.duals, [-1.0])


def test_newsvendor_recourse_stage():
    # min 10u s.t. u - w = 1: vertex (1, 0), dual 10.
    res = solve_standard_lp(
        np.array([[1.0, -1.0]]), np.array([1.0]), np.array([10.0, 0.0])
    )
    assert res.status == "optimal"
    assert np.allclose(res.x, [1.0, 0.0])
    assert res.objective == pytest.approx(10.0)
    assert np.allclose(res.duals, [10.0])


def test_infeasible_detected():
    # x1 + x2 = -1 with x >= 0 has no solution.
    res = solve_standard_lp(
        np.array([[1.0, 1.0]]), np.array([-1.0]), np.array([1.0, 1.0])
    )
    assert res.status == "infeasible"


def test_unbounded_detected():
    # min -x1 s.t. x1 - x2 = 0: the ray (t, t) is feasible and unbounded.
    res = solve_standard_lp(
        np.array([[1.0, -1.0]]), np.array([0.0]), np.array([-1.0, 0.0])
    )
    assert res.status == "unbounded"


def test_redundant_row_handled():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    res = solve_standard_lp(A, b, np.array([1.0, 2.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0)
    assert np.allclose(A @ res.x, b)


def test_matches_vertex_enumeration_on_100_random_lps():
    for seed in range(100):
        A, b, c = random_bounded_lp(seed, m=6, n=10)
        res = solve_standard_lp(A, b, c)
        oracle = vertex_enumeration_optimum(A, b, c)
        assert res.status == "optimal"
        assert oracle is not None
        assert abs(res.objective - oracle[0]) <= 1e-8 * (1.0 + abs(oracle[0]))


def test_strong_duality_on_random_lps():
    for seed in range(60):
        A, b, c = random_bounded_lp(seed + 500, m=5, n=9)
        res = solve_standard_lp(A, b, c)
        assert res.status == "optimal"
        dual_obj = float(res.duals @ b)
        assert abs(res.objective - dual_obj) <= 1e-8 * (1.0 + abs(res.objective))
        # dual feasibility of the basic dual solution
        assert (c - A.T @ res.duals).min() >= -1e-7


def test_complementary_slackness_exact():
    for seed in range(40):
        A, b, c = random_bounded_lp(seed + 900, m=6, n=11)
        res = solve_standard_lp(A, b, c)
        assert res.status == "optimal"
        assert np.abs(res.x * res.reduced_costs).max() <= 1e-8


def test_rhs_sensitivity_matches_duals():
    # Inside the basis-stability region the objective moves by duals . delta.
    rng = np.random.default_rng(7)
    checked = 0
    for seed in range(40):
        A, b, c = random_bounded_lp(seed + 1300, m=5, n=9)
        res = solve_standard_lp(A, b, c)
        assert res.status == "optimal"
        delta = 1e-6 * rng.standard_normal(b.shape[0])
        pert = solve_standard_lp(A, b + delta, c)
        if pert.status != "optimal" or not np.array_equal(
            np.sort(pert.basis), np.sort(res.basis)
        ):
            continue
        predicted = res.objective + float(res.duals @ delta)
        assert abs(pert.objective - predicted) <= 1e-6 * (1.0 + abs(res.objective))
        checked += 1
    assert checked >= 20


def test_solve_is_bitwise_deterministic():
    A, b, c = random_bounded_lp(42, m=6, n=12)
    first = solve_standard_lp(A, b, c)
    second = solve_standard_lp(A, b, c)
    assert np.array_equal(first.x, second.x)
    assert np.array_equal(first.duals, second.duals)
    assert first.objective == second.objective
    assert np.array_equal(first.basis, second.basis)


def test_warm_start_reproduces_cold_objective():
    A, b, c = random_bounded_lp(3, m=6, n=12)
    cold = solve_standard_lp(A, b, c)
    delta = np.full(b.shape[0], 1e-3)
    warm = solve_standard_lp(A, b + delta, c, start_basis=cold.basis)
    cold2 = solve_standard_lp(A, b + delta, c)
    assert warm.status == cold2.status == "optimal"
    assert warm.objective == pytest.approx(cold2.objective, abs=1e-9)


def test_degenerate_ties_are_deterministic():
    # Several optimal vertices; lowest-index tie-breaking picks the same one.
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([1.0, 1.0, 1.0])
    runs = [solve_standard_lp(A, b, c) for _ in range(3)]
    for res in runs[1:]:
        assert np.array_equal(res.x, runs[0].x)
        assert np.array_equal(res.basis, runs[0].basis)


def test_primal_infeasible_final_basis_is_not_optimal(monkeypatch):
    # Feasible bases {x1, x3} (cost 4.99, the optimum) and {x2, x3} (8.99);
    # the basis {x1, x2} solves to x1 = 2.33, x2 = -1.33, and clipping x2 to
    # zero would report cost 2.33, below the optimum.
    A = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    b = np.array([1.0, 2.33])
    c = np.array([1.0, 2.0, 3.0])
    inner = simplex._polish
    swapped = []

    def polish_at_infeasible_basis_once(basis, rhs, cost_basic):
        if not swapped:
            basis.cols[:] = [0, 1]
            cost_basic = c[basis.cols]
            x_b, mu = inner(basis, rhs, cost_basic)
            swapped.append(x_b.copy())
            return x_b, mu
        return inner(basis, rhs, cost_basic)

    monkeypatch.setattr(simplex, "_polish", polish_at_infeasible_basis_once)
    res = solve_standard_lp(A, b, c)
    assert swapped[0][1] == pytest.approx(-1.33)
    assert res.status == "optimal"
    assert sorted(res.basis) != [0, 1]
    assert res.objective == pytest.approx(4.99, abs=1e-12)
    assert np.abs(A @ res.x - b).max() <= 1e-12


def test_singular_pivot_fixture_solves_cold():
    # Captured storage stage LP (70 x 95) on which the primal ratio test
    # once took a pivot the basis update refused; the forced refactorization
    # then met a singular basis.  The optimum is HiGHS's (the fixture's
    # ``highs_objective``).
    A, b, c, _, _ = load_fixture("lp_singular_pivot.json")
    res = solve_standard_lp(A, b, c)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3602.1989171162295, rel=1e-9, abs=0.0)
    assert np.abs(A @ res.x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())


def test_factorization_goes_through_module_lu_names(monkeypatch):
    # The traced benchmark counts factorizations by wrapping these two
    # module globals; the basis kernel must look them up there.  The QP
    # finishes on the same kernel, so it needs no dense solve of its own.
    def no_dense_solve(*args, **kwargs):
        raise AssertionError("numpy.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_dense_solve)
    calls = {"lu_factor": 0, "lu_solve": 0}
    for name in calls:
        inner = getattr(simplex, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(simplex, name, counted)
    res = solve_standard_lp(
        np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]),
        np.array([2.0, 0.0]),
        np.array([-1.0, -2.0, 0.0]),
    )
    assert res.status == "optimal"
    assert calls["lu_factor"] >= 1
    assert calls["lu_solve"] >= 1
    # A QP with a superbasic at its optimum (an interior point).
    calls.update(lu_factor=0, lu_solve=0)
    res = solve_standard_qp(
        np.array([[1.0, 1.0, 1.0]]),
        np.array([2.0]),
        np.array([-1.0, -0.5, 0.0]),
        np.diag([2.0, 2.0, 0.0]),
    )
    assert res.status == "optimal"
    assert res.n_superbasic > 0
    assert np.allclose(res.x[:2], [0.5, 0.25])
    assert calls["lu_factor"] >= 1
    assert calls["lu_solve"] >= 1
