import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from sddpkit import simplex
from sddpkit.qp import solve_standard_qp
from sddpkit.simplex import solve_standard_lp
from sddpkit.subproblem import load_subproblem
from support import FIXTURES, random_bounded_lp, vertex_enumeration_optimum


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


def _updates_at_each_factorization(monkeypatch):
    """A list that records, at each ``_Basis`` factorization, how many
    updates its inverse had had (``None`` for a new basis)."""
    seen = []
    inner = simplex._Basis.refactorize

    def recorded(basis):
        seen.append(getattr(basis, "_updates", None))
        inner(basis)

    monkeypatch.setattr(simplex._Basis, "refactorize", recorded)
    return seen


def test_unbounded_verdict_comes_from_a_fresh_factorization(monkeypatch):
    # min -x1 - 2 x2 s.t. x1 - x2 + s1 = 1, -x1 + x2 + s2 = 1: x2 enters
    # first, then the ray (t, t) shows.  The updated inverse is factorized
    # again before the verdict.
    seen = _updates_at_each_factorization(monkeypatch)
    A = np.array([[1.0, -1.0, 1.0, 0.0], [-1.0, 1.0, 0.0, 1.0]])
    res = solve_standard_lp(A, np.array([1.0, 1.0]), np.array([-1.0, -2.0, 0.0, 0.0]))
    assert res.status == "unbounded"
    assert seen == [None, 1]


def test_infeasible_verdict_comes_from_a_fresh_factorization(monkeypatch):
    # x1 + x2 = 2 and x1 + x2 = 1: phase 1 brings x1 in and stops with an
    # artificial at 1, which a fresh factorization confirms.
    seen = _updates_at_each_factorization(monkeypatch)
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    res = solve_standard_lp(A, np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    assert res.status == "infeasible"
    assert seen == [None, 1]


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
    # context's ``highs_objective``).
    spec, _, _ = load_subproblem(FIXTURES / "lp_singular_pivot.json")
    A, b, c = spec.A, spec.rhs, spec.c
    res = solve_standard_lp(A, b, c)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3602.1989171162295, rel=1e-9, abs=0.0)
    assert np.abs(A @ res.x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())


def test_false_unbounded_fixture_solves_warm_and_cold():
    # Captured backward-pass storage stage LP (81 x 116).  From its recorded
    # start the primal simplex met an entering column with no entry above
    # the pivot floor after 36 updates of a nearly singular basis, and
    # reported "unbounded"; the verdict now waits for a refactorization.
    # The optimum is HiGHS's (the fixture's context's ``highs_objective``).
    spec, start, _ = load_subproblem(FIXTURES / "lp_false_unbounded.json")
    A, b, c = spec.A, spec.rhs, spec.c
    for basis in (start, None):
        res = solve_standard_lp(A, b, c, start_basis=basis)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(8188.118575453894, rel=1e-9, abs=0.0)
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


def fixture_bases():
    """(name, basis matrix) for each fixture's start basis (the crash basis
    of a cold start where the fixture holds none) and its optimal basis."""
    out = []
    for name in ("lp_singular_pivot", "qp_degenerate_block"):
        spec, start, _ = load_subproblem(FIXTURES / f"{name}.json")
        _, ext, _ = simplex._oriented_rows(spec.A, spec.rhs)
        if start is None:
            start = simplex._crash_basis(ext)
        final = solve_standard_lp(spec.A, spec.rhs, spec.c, start).basis
        out += [(f"{name}-start", ext[:, start]), (f"{name}-final", ext[:, final])]
    return out


def test_lu_wrappers_match_scipy_bit_for_bit():
    rng = np.random.default_rng(7)
    bases = [(f"random-{m}", rng.standard_normal((m, m))) for m in (1, 65, 150)]
    for name, B in bases + fixture_bases():
        m = B.shape[0]
        lu, piv = simplex.lu_factor(B)
        ref = scipy.linalg.lu_factor(B, check_finite=False)
        assert np.array_equal(lu, ref[0]) and np.array_equal(piv, ref[1]), name
        rhs = rng.standard_normal(m)
        for b in (rhs, np.eye(m)):
            x = simplex.lu_solve((lu, piv), b)
            expected = scipy.linalg.lu_solve(ref, b, check_finite=False)
            assert np.array_equal(x, expected), name
        # the kernel's inverse build: the identity solved in place
        inv = simplex.lu_solve((lu, piv), np.eye(m, order="F"), overwrite_b=True)
        assert np.array_equal(inv, scipy.linalg.lu_solve(ref, np.eye(m))), name
        assert inv.flags.f_contiguous


def test_exactly_singular_basis_raises_without_warning():
    matrix = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(simplex.SingularBasis):
            simplex._Basis(matrix, [0, 1])


def assert_same_lp_result(a, b):
    assert a.status == b.status == "optimal"
    for name in ("x", "duals", "reduced_costs", "basis"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.objective == b.objective


def test_carried_factor_follows_row_flips_in_fortran_order(monkeypatch):
    # Slack pairs make every right-hand side feasible, so the rows can
    # change sign between two solves of one LP; the start basis is the one
    # the first solve ended on, so its inverse is carried, with the columns
    # of the flipped rows negated.
    rng = np.random.default_rng(5)
    m, k = 7, 5
    A = np.hstack([rng.standard_normal((m, k)), np.eye(m), -np.eye(m)])
    c = np.concatenate([rng.uniform(-1.0, 0.0, k), rng.uniform(1.0, 2.0, 2 * m)])
    A = np.vstack([A, np.concatenate([np.ones(k), np.zeros(2 * m)])])
    A = np.hstack([A, np.eye(m + 1)[:, -1:]])  # x sum + s = 4
    c = np.append(c, 0.0)
    b1 = np.append(rng.standard_normal(m), 4.0)
    b2 = b1.copy()
    b2[[0, 2, 3]] *= -1.0
    carry = simplex.CarriedFactor()
    first = solve_standard_lp(A, b1, c, carry=carry)
    assert first.status == "optimal" and carry.inv is not None

    signs2, ext2, _ = simplex._oriented_rows(A, b2)
    assert (signs2 != carry.signs).sum() >= 2
    inv = carry.take(A, signs2, first.basis)
    assert inv.flags.f_contiguous
    assert np.array_equal(inv, simplex._Basis(ext2, first.basis)._inv)
    assert carry.inv is None

    # A solve with the carried factor returns the bits of one without it,
    # and factorizes less.
    factorizations = []
    inner = simplex.lu_factor

    def counted(a):
        factorizations.append(a.shape[0])
        return inner(a)

    monkeypatch.setattr(simplex, "lu_factor", counted)
    solve_standard_lp(A, b1, c, start_basis=first.basis, carry=carry)
    factorizations.clear()
    carried = solve_standard_lp(A, b2, c, start_basis=first.basis, carry=carry)
    n_carried = len(factorizations)
    fresh = solve_standard_lp(A, b2, c, start_basis=first.basis)
    assert_same_lp_result(carried, fresh)
    assert n_carried < len(factorizations) - n_carried
    # the carry now holds the fresh factor of the final basis
    assert np.array_equal(carry.cols, carried.basis)
    assert carry.inv.flags.f_contiguous


def test_carried_factor_needs_the_same_matrix_object():
    A, b, c = random_bounded_lp(9, m=5, n=9)
    carry = simplex.CarriedFactor()
    res = solve_standard_lp(A, b, c, carry=carry)
    signs, _, _ = simplex._oriented_rows(A, b)
    assert carry.take(A.copy(), signs, res.basis) is None
    assert carry.take(A, signs, res.basis[::-1]) is None
    assert carry.take(A, signs, res.basis) is not None


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 10_000),
    draws=st.lists(
        st.integers(0, 10**6),
        min_size=2 * simplex.REFACTOR_EVERY + 5,
        max_size=2 * simplex.REFACTOR_EVERY + 40,
    ),
    forced=st.integers(0, 2 * simplex.REFACTOR_EVERY + 4),
)
def test_basis_keeps_its_enterable_mask_across_updates(seed, draws, forced):
    # Each step exchanges a basic column for a nonbasic one (an artificial
    # or an original), drawn among the pairs whose pivot keeps [A | I] well
    # conditioned.  Step ``forced`` hands ``update`` a direction whose pivot
    # entry is below the floor, which makes it refactorize; the longer side
    # of that step holds more than REFACTOR_EVERY updates, so the cadence
    # refactorizes too.  After every step the kernel's mask is the one
    # rebuilt from cols.
    rng = np.random.default_rng(seed)
    m, n = 5, 9
    ext = np.hstack([rng.standard_normal((m, n)), np.eye(m)])
    basis = simplex._Basis(ext, np.arange(n, n + m))

    def rebuilt():
        mask = np.zeros(n + m, dtype=bool)
        mask[:n] = True
        mask[basis.cols] = False
        return mask

    assert basis.n == n and np.array_equal(basis.enterable, rebuilt())
    kinds = []
    for step, draw in enumerate(draws):
        nonbasic = np.setdiff1d(np.arange(n + m), basis.cols)
        D = np.abs(basis.solve(ext[:, nonbasic]))
        pairs = np.argwhere(D >= 0.2 * np.maximum(1.0, D.max(axis=0)))
        pos, k = pairs[draw % len(pairs)]
        q = int(nonbasic[k])
        d = basis.solve(ext[:, q])
        if step == forced:
            d[pos] = 0.0
            assert abs(d[pos]) <= basis.pivot_floor(d)
        due = basis._updates >= simplex.REFACTOR_EVERY
        basis.update(pos, q, d)
        kinds.append("forced" if step == forced else "cadence" if due else "update")
        assert (basis._updates == 0) == (kinds[-1] != "update")
        assert np.array_equal(basis.enterable, rebuilt())
        assert np.allclose(basis.solve(ext[:, basis.cols]), np.eye(m), atol=1e-8)
    assert {"forced", "cadence"} <= set(kinds)


def test_bland_rule_past_the_stall_limit_reaches_the_optimum(monkeypatch):
    # With STALL_LIMIT at 0, each phase prices its first pivot by Dantzig's
    # rule and every later one by Bland's.  On this LP the two rules bring
    # in different columns, so the Bland branch runs, and both solves reach
    # HiGHS's optimum.
    A, b, c = random_bounded_lp(0, m=4, n=8)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    inner = simplex._Basis.update
    entering = {}
    for limit in (simplex.STALL_LIMIT, 0):
        monkeypatch.setattr(simplex, "STALL_LIMIT", limit)
        seq = entering[limit] = []

        def recording(self, pos, new_col, direction, seq=seq):
            seq.append(new_col)
            inner(self, pos, new_col, direction)

        monkeypatch.setattr(simplex._Basis, "update", recording)
        res = solve_standard_lp(A, b, c)
        assert res.status == "optimal"
        assert abs(res.objective - ref.fun) <= 1e-9 * (1.0 + abs(ref.fun))
        assert np.abs(A @ res.x - b).max() <= 1e-9 and res.x.min() >= 0.0
    dantzig, bland = entering.values()
    assert dantzig[0] == bland[0] and dantzig != bland


def slack_pair_chain(seed: int, n_solves: int):
    """An LP whose every right-hand side is feasible (slack pairs on each
    row, and a sum row that bounds the other variables), with ``n_solves``
    right-hand sides that flip some rows' signs from one to the next."""
    rng = np.random.default_rng(seed)
    m, k = 7, 5
    A = np.hstack([rng.standard_normal((m, k)), np.eye(m), -np.eye(m)])
    c = np.concatenate([rng.uniform(-1.0, 0.0, k), rng.uniform(1.0, 2.0, 2 * m)])
    A = np.vstack([A, np.concatenate([np.ones(k), np.zeros(2 * m)])])
    A = np.hstack([A, np.eye(m + 1)[:, -1:]])  # x sum + s = 4
    c = np.append(c, 0.0)
    rhs = [np.append(rng.standard_normal(m), 4.0) for _ in range(n_solves)]
    return A, c, rhs


def live_chain(A, c, rhs, carry):
    """Warm solves of ``A`` at each right-hand side in turn, each from the
    basis the previous one ended on, all with the slot ``carry``."""
    results = [solve_standard_lp(A, rhs[0], c, carry=carry)]
    for b in rhs[1:]:
        results.append(solve_standard_lp(A, b, c, start_basis=results[-1].basis, carry=carry))
    return results


def test_live_factor_refactorizes_on_the_cadence_counted_across_solves(monkeypatch):
    # With a cadence of 4, a live slot carries each solve's update count
    # into the next: an update refactorizes exactly when the count that
    # reached it, carried in plus made since, is 4 (or its pivot is below
    # the floor), and some do so in a solve that made fewer than 4 itself.
    monkeypatch.setattr(simplex, "REFACTOR_EVERY", 4)
    A, c, rhs = slack_pair_chain(6, 30)
    inner = simplex._Basis.update
    events = []

    def recording(self, pos, new_col, direction):
        before = self._updates
        floor = abs(direction[pos]) <= self.pivot_floor(direction)
        inner(self, pos, new_col, direction)
        events.append((before, floor, self._updates))

    monkeypatch.setattr(simplex._Basis, "update", recording)
    carry = simplex.CarriedFactor(live=True)
    res = solve_standard_lp(A, rhs[0], c, carry=carry)
    carried_in = across = 0
    for b in rhs[1:]:
        held, start = carry.updates, res.basis
        events.clear()
        res = solve_standard_lp(A, b, c, start_basis=start, carry=carry)
        assert res.status == "optimal"
        for i, (before, floor, after) in enumerate(events):
            assert after == (0 if before >= 4 or floor else before + 1)
            across += before >= 4 and not floor and i < 4
        if events and held and events[0][0] == held:
            carried_in += 1
        assert carry.updates == (events[-1][2] if events else held)
    assert carried_in >= 5 and across >= 3


def test_live_factor_follows_row_flips():
    # The held inverse has updates since its factorization; taken for a
    # right-hand side that flips rows, its flipped rows' columns are
    # negated, so it inverts the flipped basis, in Fortran order.
    A, c, rhs = slack_pair_chain(5, 12)
    carry = simplex.CarriedFactor(live=True)
    results = live_chain(A, c, rhs[:-1], carry)
    assert carry.updates > 0 and np.array_equal(carry.cols, results[-1].basis)
    held = carry.inv.copy()
    signs2, ext2, _ = simplex._oriented_rows(A, rhs[-1])
    flip = signs2 != carry.signs
    assert flip.any() and not flip.all()
    inv = carry.take(A, signs2, results[-1].basis)
    assert inv.flags.f_contiguous and carry.inv is None
    assert np.array_equal(inv[:, flip], -held[:, flip])
    assert np.array_equal(inv[:, ~flip], held[:, ~flip])
    B = ext2[:, results[-1].basis]
    assert np.abs(inv @ B - np.eye(B.shape[0])).max() <= 1e-12


def test_live_chain_matches_fresh_solves(monkeypatch):
    # Each solve of a live chain satisfies the KKT conditions to the QP
    # tests' tolerances, ends on the basis of the same warm solve without a
    # carried factor, and factorizes less.
    from test_qp import assert_kkt

    A, c, rhs = slack_pair_chain(7, 25)
    factorizations = []
    inner = simplex.lu_factor

    def counted(a):
        factorizations.append(a.shape[0])
        return inner(a)

    monkeypatch.setattr(simplex, "lu_factor", counted)
    results = live_chain(A, c, rhs, simplex.CarriedFactor(live=True))
    n_live = len(factorizations)
    factorizations.clear()
    fresh = [solve_standard_lp(A, rhs[0], c)]
    fresh += [
        solve_standard_lp(A, b, c, start_basis=prev.basis)
        for b, prev in zip(rhs[1:], results)
    ]
    G = np.zeros((A.shape[1], A.shape[1]))
    for b, res, ref in zip(rhs, results, fresh):
        assert_kkt(res, A, b, c, G)
        assert np.array_equal(res.basis, ref.basis)
        assert res.objective == pytest.approx(ref.objective, rel=1e-12, abs=1e-12)
    assert n_live < len(factorizations)
