import numpy as np
import pytest

from sddpkit import qp, simplex
from sddpkit.errors import NumericalBreakdown
from sddpkit.qp import solve_standard_qp
from sddpkit.simplex import solve_standard_lp
from sddpkit.subproblem import load_subproblem
from support import FIXTURES, random_bounded_lp


def quad_obj(c, G, x):
    return float(c @ x + 0.5 * x @ (G @ x))


def test_scalar_distance_minimization():
    # min 1/2 (y - 2)^2 via the split z = y - 2: optimum y = 2, value 0.
    A = np.array([[1.0, -1.0, 1.0]])
    b = np.array([2.0])
    c = np.zeros(3)
    G = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
    res = solve_standard_qp(A, b, c, G)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0, abs=1e-9)
    assert res.objective == pytest.approx(0.0, abs=1e-9)


def test_newsvendor_stage0_regularized():
    # min x0 + theta + x0^2/2 with theta >= 15 - 10 x0 and x0 <= 3:
    # boundary minimum at x0 = 3, objective -7.5.
    A = np.array(
        [[1.0, 1.0, 0.0, 0.0, 0.0], [10.0, 0.0, 1.0, -1.0, -1.0]]
    )
    b = np.array([3.0, 15.0])
    c = np.array([1.0, 0.0, 1.0, -1.0, 0.0])
    G = np.zeros((5, 5))
    G[0, 0] = 1.0
    res = solve_standard_qp(A, b, c, G)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(3.0, abs=1e-9)
    assert res.objective == pytest.approx(-7.5, abs=1e-9)


def test_interior_optimum_reached_from_vertex():
    # min (y1 - 0.5)^2 + (y2 - 0.25)^2 s.t. y1 + y2 + s = 2: interior point.
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([2.0])
    c = np.array([-1.0, -0.5, 0.0])
    G = np.diag([2.0, 2.0, 0.0])
    res = solve_standard_qp(A, b, c, G)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(0.5, abs=1e-8)
    assert res.x[1] == pytest.approx(0.25, abs=1e-8)
    assert res.n_superbasic > 0


def test_infeasible_and_unbounded_statuses():
    res = solve_standard_qp(
        np.array([[1.0, 1.0]]),
        np.array([-1.0]),
        np.array([1.0, 1.0]),
        np.zeros((2, 2)),
    )
    assert res.status == "infeasible"
    # zero quadratic on an unbounded LP stays unbounded
    res = solve_standard_qp(
        np.array([[1.0, -1.0]]),
        np.array([0.0]),
        np.array([-1.0, 0.0]),
        np.zeros((2, 2)),
    )
    assert res.status == "unbounded"


def test_quadratic_bounds_an_unbounded_lp():
    # LP min -y1 + 0 y2 s.t. y1 - y2 = 0 is unbounded; adding curvature on
    # y1 caps the ray at y1 = 1/rho.
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    c = np.array([-1.0, 0.0])
    G = np.diag([1.0, 0.0])
    res = solve_standard_qp(A, b, c, G)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0, abs=1e-8)
    assert res.objective == pytest.approx(-0.5, abs=1e-9)


def test_kkt_residuals_on_random_qps():
    rng = np.random.default_rng(0)
    for seed in range(40):
        A, b, c = random_bounded_lp(seed + 50, m=5, n=9)
        M = rng.standard_normal((3, 9))
        G = M.T @ M  # PSD, rank 3
        assert_kkt(solve_standard_qp(A, b, c, G), A, b, c, G)


def assert_kkt(res, A, b, c, G):
    assert res.status == "optimal"
    y = res.x
    scale = 1.0 + abs(res.objective)
    grad = c + G @ y
    stat = grad - A.T @ res.duals - res.reduced_costs
    assert np.abs(stat).max() <= 1e-8 * scale
    assert np.abs(A @ y - b).max() <= 1e-8 * (1.0 + np.abs(b).max())
    assert y.min() >= -1e-10
    assert res.reduced_costs.min() >= -1e-7 * scale
    assert np.abs(y * res.reduced_costs).max() <= 1e-8 * scale


def test_feasible_start_basis_skips_the_starting_lp(monkeypatch):
    # Start bases are other vertices of the same polytope (LP optima under
    # random costs): primal feasible, but not optimal for the QP's LP part.
    rng = np.random.default_rng(2)
    starts = []
    for seed in range(20):
        A, b, c = random_bounded_lp(seed + 300, m=5, n=9)
        vertex = solve_standard_lp(A, b, rng.standard_normal(9))
        if vertex.status == "optimal" and vertex.basis.max() < 9:
            M = rng.standard_normal((3, 9))
            starts.append((A, b, c, M.T @ M, vertex.basis))
    assert len(starts) >= 10

    def no_lp(*args, **kwargs):
        raise AssertionError("the QP solved its starting LP")

    monkeypatch.setattr(qp, "solve_standard_lp", no_lp)
    for A, b, c, G, basis in starts:
        assert_kkt(solve_standard_qp(A, b, c, G, start_basis=basis), A, b, c, G)


def test_degenerate_block_without_superbasic_pivot():
    # Captured regularized storage stage QP (59 x 84, diagonal G): a basic
    # variable blocks the step at length zero while the only superbasic
    # pivot in its row (8.5e-8) is below the safe-pivot threshold.  The
    # working set must still change, from the captured warm basis and from
    # a cold start alike.
    spec, warm_basis, _ = load_subproblem(FIXTURES / "qp_degenerate_block.json")
    A, b, c, G = spec.A, spec.rhs, spec.c, spec.quad[0] * spec.quad[1]
    for start in (warm_basis, None):
        assert_kkt(solve_standard_qp(A, b, c, G, start_basis=start), A, b, c, G)


@pytest.mark.xfail(strict=True, raises=NumericalBreakdown)
def test_infeasible_working_set_replay():
    # Captured regularized storage stage QP (62 x 97, diagonal G) whose LP
    # relaxation is feasible.  The active set stops at a working set whose
    # polished basics are negative, from the recorded start and cold alike.
    spec, start, _ = load_subproblem(FIXTURES / "qp_infeasible_working_set.json")
    A, b, c, G = spec.A, spec.rhs, spec.c, spec.quad[0] * spec.quad[1]
    for basis in (start, None):
        assert_kkt(solve_standard_qp(A, b, c, G, start_basis=basis), A, b, c, G)


def test_objective_dominates_random_feasible_points():
    rng = np.random.default_rng(1)
    for seed in range(15):
        A, b, c = random_bounded_lp(seed + 200, m=5, n=9)
        M = rng.standard_normal((2, 9))
        G = M.T @ M
        res = solve_standard_qp(A, b, c, G)
        assert res.status == "optimal"
        # random vertices + convex combinations = 100 feasible probes
        vertices = []
        for _ in range(10):
            probe = solve_standard_lp(A, b, rng.standard_normal(9))
            if probe.status == "optimal":
                vertices.append(probe.x)
        count = 0
        while count < 100 and vertices:
            w = rng.dirichlet(np.ones(len(vertices)))
            point = np.average(vertices, axis=0, weights=w)
            assert quad_obj(c, G, point) >= res.objective - 1e-7 * (
                1.0 + abs(res.objective)
            )
            count += 1


def test_qp_deterministic():
    A, b, c = random_bounded_lp(77, m=6, n=11)
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 11))
    G = M.T @ M
    first = solve_standard_qp(A, b, c, G)
    second = solve_standard_qp(A, b, c, G)
    assert np.array_equal(first.x, second.x)
    assert first.objective == second.objective


def test_infeasible_start_carries_factors_through_the_starting_lp(monkeypatch):
    # A start basis that is primal infeasible sends the QP to its starting
    # LP.  The LP starts from the inverse the QP factorized for that basis,
    # and the QP takes over the LP's final inverse; with every factor
    # computed fresh instead, the result has the same bits.
    rng = np.random.default_rng(4)
    cases = []
    for seed in range(60):
        A, b, c = random_bounded_lp(seed + 700, m=5, n=9)
        vertex = solve_standard_lp(A, b, rng.standard_normal(9))
        if vertex.status != "optimal" or vertex.basis.max() >= 9:
            continue
        b_new = b + rng.standard_normal(5)
        _, ext, bw = simplex._oriented_rows(A, b_new)
        warm = simplex._warm_basis(ext, bw, vertex.basis)
        if warm is not None and not warm[2]:
            M = rng.standard_normal((3, 9))
            cases.append((A, b_new, c, M.T @ M, vertex.basis))
    assert len(cases) >= 10

    factorizations = []
    inner = simplex.lu_factor

    def counted(a):
        factorizations.append(a.shape[0])
        return inner(a)

    monkeypatch.setattr(simplex, "lu_factor", counted)
    results = [solve_standard_qp(*case) for case in cases]
    n_carried = len(factorizations)
    monkeypatch.setattr(simplex.CarriedFactor, "take", lambda self, *args: None)
    factorizations.clear()
    for case, res in zip(cases, results):
        fresh = solve_standard_qp(*case)
        assert res.status == fresh.status
        if res.status != "optimal":
            continue
        for name in ("x", "duals", "reduced_costs", "basis"):
            assert np.array_equal(getattr(res, name), getattr(fresh, name)), name
        assert res.objective == fresh.objective
        assert res.n_superbasic == fresh.n_superbasic
    # two factorizations saved per QP: the LP's start and the QP's restart
    assert n_carried <= len(factorizations) - 2 * len(cases)
