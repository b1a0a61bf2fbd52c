"""Revised primal simplex for dense standard-form LPs.

    min c . x   s.t.   A x = b,   x >= 0

Two-phase method with Dantzig pricing, a permanent switch to Bland's rule
on stalling, and lowest-variable-index tie-breaking in the ratio test.  All
pivoting rules are index-deterministic, so identical inputs produce
identical bases, primals and duals.

The basis kernel ``_Basis`` keeps an explicit dense inverse, changed by
rank-one updates at each pivot and rebuilt from an LU factorization every
``REFACTOR_EVERY`` updates.  It owns the one pivot rule
(``_Basis.pivot_floor``): the primal ratio test takes only pivots that the
update accepts.  The inverse is kept rather than LU factors with an eta
file because the stage LPs are small (65-102 rows): at 65 rows ``inv @ v``
takes about 2 us against 16 us for ``lu_solve``, and each eta step would
add about 3 us of Python.  A solve that breaks down numerically is retried
once from a cold start.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .errors import NumericalBreakdown

PIVOT_TOL = 1e-9
RATIO_TIE_TOL = 1e-12
REFACTOR_EVERY = 60
STALL_LIMIT = 800


class SingularBasis(NumericalBreakdown):
    """The candidate basis matrix is numerically singular."""


class _Basis:
    """Explicit dense inverse of the basis, kept current by product-form
    updates and rebuilt from an LU factorization every ``REFACTOR_EVERY``
    updates.

    The basis is ``matrix[:, cols]``.  Solves are single matrix-vector
    products against the stored inverse.
    """

    PIVOT_REL = 1e-8

    def __init__(self, matrix: np.ndarray, cols: np.ndarray):
        self.matrix = matrix
        self.cols = np.array(cols, dtype=int)
        self.refactorize()

    @classmethod
    def pivot_floor(cls, direction: np.ndarray) -> float:
        """Largest |d_p| that ``update`` refuses as a pivot, for the column
        whose B^{-1} a is ``direction``: a share ``PIVOT_REL`` of
        max(1, max|d|)."""
        return cls.PIVOT_REL * max(1.0, np.abs(direction).max(initial=0.0))

    def refactorize(self) -> None:
        B = self.matrix[:, self.cols]
        m = B.shape[0]
        if m == 0:
            self._inv = np.zeros((0, 0))
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinAlgWarning)
                lu, piv = lu_factor(B, check_finite=False)
            diag = np.abs(np.diag(lu))
            if diag.min() <= 1e-13 * max(1.0, diag.max()):
                raise SingularBasis("basis factorization failed: singular basis")
            self._inv = lu_solve((lu, piv), np.eye(m), check_finite=False)
        self._factored = self.cols.copy()
        self._updates = 0

    def refresh(self) -> None:
        """Refactorize unless the inverse was just factorized from the
        current columns."""
        if self._updates or not np.array_equal(self.cols, self._factored):
            self.refactorize()

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Return B^{-1} v."""
        return self._inv @ v

    def solve_transpose(self, v: np.ndarray) -> np.ndarray:
        """Return B^{-T} v."""
        return self._inv.T @ v

    def row(self, p: int) -> np.ndarray:
        """Return e_p^T B^{-1}, as a copy: products with an aligned copy
        round as they do with a freshly computed vector."""
        return self._inv[p].copy()

    def update(self, pos: int, new_col: int, direction: np.ndarray) -> None:
        """Replace the basic variable at position ``pos`` by column
        ``new_col``; ``direction`` must equal B^{-1} a_{new_col}."""
        self.cols[pos] = new_col
        if (
            self._updates >= REFACTOR_EVERY
            or abs(direction[pos]) <= self.pivot_floor(direction)
        ):
            self.refactorize()
            return
        row_p = self._inv[pos] / direction[pos]
        self._inv -= np.outer(direction, row_p)
        self._inv[pos] = row_p
        self._updates += 1


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    objective: float = np.nan
    basis: np.ndarray | None = None
    # Feasible basis found before unboundedness was detected (QP warm start).
    feasible_basis: np.ndarray | None = None


def _iterate(
    matrix: np.ndarray,
    cost: np.ndarray,
    basis: _Basis,
    x_b: np.ndarray,
    allowed: np.ndarray,
    max_iter: int,
) -> tuple[str, np.ndarray]:
    """Run primal simplex pivots until optimality/unboundedness.

    ``allowed`` masks the columns eligible to enter the basis.  Returns the
    terminal status and the final basic values.
    """
    m = x_b.shape[0]
    bland = False
    stall = 0
    best = np.inf
    enter_mask = np.zeros(matrix.shape[1], dtype=bool)
    for it in range(max_iter):
        mu = basis.solve_transpose(cost[basis.cols])
        reduced = cost - matrix.T @ mu
        tol = 1e-9 * (1.0 + np.abs(cost).max(initial=0.0))
        enter_mask[:] = allowed
        enter_mask[basis.cols] = False
        enter_mask &= reduced < -tol
        if not enter_mask.any():
            return "optimal", x_b
        if bland:
            q = int(np.argmax(enter_mask))
        else:
            masked = np.where(enter_mask, reduced, np.inf)
            q = int(np.argmin(masked))
        d = basis.solve(matrix[:, q])
        pos = d > basis.pivot_floor(d)
        if not pos.any():
            return "unbounded", x_b
        ratios = np.full(m, np.inf)
        ratios[pos] = x_b[pos] / d[pos]
        theta = ratios.min()
        tied = ratios <= theta + RATIO_TIE_TOL * (1.0 + abs(theta))
        cand = np.where(tied)[0]
        p = int(cand[np.argmin(basis.cols[cand])])
        x_b -= theta * d
        x_b[x_b < 0.0] = 0.0
        x_b[p] = theta
        basis.update(p, q, d)
        obj = float(cost[basis.cols] @ x_b)
        if obj < best - 1e-12 * (1.0 + abs(best)):
            best = obj
            stall = 0
        else:
            stall += 1
            if stall > STALL_LIMIT:
                bland = True
    raise NumericalBreakdown("simplex iteration limit reached")


def _dual_iterate(
    matrix: np.ndarray,
    cost: np.ndarray,
    basis: _Basis,
    x_b: np.ndarray,
    allowed: np.ndarray,
    max_iter: int,
) -> tuple[str, np.ndarray]:
    """Dual simplex pivots from a dual-feasible basis until the basics turn
    nonnegative.  Returns "feasible" on success, "dual-unbounded" when some
    row cannot be repaired, "stalled" past the iteration cap; the caller
    falls back to a cold start on anything but success.

    Reduced costs are updated incrementally and refreshed periodically.
    """
    tol_p = 1e-9
    reduced = None
    for it in range(max_iter):
        p = int(np.argmin(x_b))
        if x_b[p] >= -tol_p:
            return "feasible", x_b
        if reduced is None or it % 40 == 39:
            mu = basis.solve_transpose(cost[basis.cols])
            reduced = cost - matrix.T @ mu
        np.maximum(reduced, 0.0, out=reduced)
        row = basis.row(p) @ matrix
        cand = allowed.copy()
        cand[basis.cols] = False
        cand &= row < -PIVOT_TOL
        if not cand.any():
            return "dual-unbounded", x_b
        idx = np.where(cand)[0]
        ratios = reduced[idx] / (-row[idx])
        best = ratios.min()
        tied = idx[ratios <= best + RATIO_TIE_TOL * (1.0 + abs(best))]
        q = int(tied.min())
        d = basis.solve(matrix[:, q])
        if abs(d[p]) <= 1e-7 * (1.0 + np.abs(d).max()):
            return "stalled", x_b
        theta = x_b[p] / d[p]
        x_b -= theta * d
        x_b[p] = theta
        reduced = reduced - (reduced[q] / row[q]) * row
        basis.update(p, q, d)
    return "stalled", x_b


def _oriented_rows(A: np.ndarray, b: np.ndarray):
    """Flip rows so the right-hand side is nonnegative (the phase-1 start is
    then feasible) and append one artificial column per row.

    Returns ``(signs, ext, bw)`` with ``ext = [A * signs | I]`` and
    ``bw = b * signs``; duals flip back through ``signs``.  The LP and the QP
    both build their extended matrix here, so warm bases carry between them.
    """
    signs = np.where(b < 0.0, -1.0, 1.0)
    ext = np.hstack([A * signs[:, None], np.eye(A.shape[0])])
    return signs, ext, b * signs


def _crash_basis(ext: np.ndarray, bw: np.ndarray, n: int) -> np.ndarray:
    """Initial basis for phase 1: per row, a positive singleton column when
    one exists (slack-style), the artificial otherwise."""
    m = bw.shape[0]
    nz_per_col = np.count_nonzero(ext[:, :n], axis=0)
    cols = np.arange(n, n + m)
    for j in np.where(nz_per_col == 1)[0]:
        i = int(np.argmax(ext[:, j] != 0.0))
        if cols[i] >= n and ext[i, j] > PIVOT_TOL:
            cols[i] = j
    return cols


def _polish(basis: _Basis, rhs: np.ndarray, cost_basic: np.ndarray):
    """Recompute basic values and duals at the final basis with iterated
    refinement (effective up to condition numbers around 1e13)."""
    basis.refresh()
    B = basis.matrix[:, basis.cols]
    x_b = basis.solve(rhs)
    scale_b = 1.0 + np.abs(rhs).max(initial=0.0)
    for _ in range(5):
        resid = rhs - B @ x_b
        if np.abs(resid).max(initial=0.0) <= 1e-14 * scale_b:
            break
        x_b = x_b + basis.solve(resid)
    mu = basis.solve_transpose(cost_basic)
    scale_c = 1.0 + np.abs(cost_basic).max(initial=0.0)
    for _ in range(5):
        resid = cost_basic - B.T @ mu
        if np.abs(resid).max(initial=0.0) <= 1e-14 * scale_c:
            break
        mu = mu + basis.solve_transpose(resid)
    return x_b, mu


def solve_standard_lp(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    start_basis: np.ndarray | None = None,
) -> LpResult:
    """Solve a standard-form LP, returning a vertex primal and the matching
    basic dual solution.

    ``start_basis`` is an optional warm start: a set of m column indices
    whose basis is tried first (repaired by dual simplex when only the rhs
    moved); otherwise the solve is a two-phase cold start.  Every pivot
    follows the basis kernel's one pivot rule.  A numerical breakdown is
    retried once from a cold start before it propagates.
    """
    try:
        return _solve_lp_once(A, b, c, start_basis)
    except NumericalBreakdown:
        return _solve_lp_once(A, b, c, None)


def _solve_lp_once(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    start_basis: np.ndarray | None,
) -> LpResult:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if m == 0:
        if np.all(c >= 0.0):
            return LpResult(
                status="optimal",
                x=np.zeros(n),
                duals=np.zeros(0),
                reduced_costs=c.copy(),
                objective=0.0,
                basis=np.zeros(0, dtype=int),
            )
        return LpResult(status="unbounded")

    signs, ext, bw = _oriented_rows(A, b)
    max_iter = 200 * (m + n) + 10_000

    allowed_cols = np.zeros(n + m, dtype=bool)
    allowed_cols[:n] = True

    basis = None
    if start_basis is not None:
        cols = np.asarray(start_basis, dtype=int)
        if (
            cols.shape == (m,)
            and len(np.unique(cols)) == m
            and cols.min() >= 0
            and cols.max() < n
        ):
            try:
                cand = _Basis(ext, cols)
                cost2 = np.concatenate([c, np.zeros(m)])
                x_b = cand.solve(bw)
                if x_b.min(initial=0.0) >= -1e-9:
                    x_b[x_b < 0.0] = 0.0
                    basis = cand
                else:
                    # Primal infeasible warm basis: repair by dual simplex
                    # if the basis is still dual feasible (the usual case
                    # when only rhs entries or appended cut rows changed).
                    mu = cand.solve_transpose(cost2[cand.cols])
                    reduced = cost2 - ext.T @ mu
                    dual_ok = (
                        reduced[allowed_cols].min(initial=0.0)
                        >= -1e-7 * (1.0 + np.abs(c).max(initial=0.0))
                    )
                    if dual_ok:
                        status, x_b = _dual_iterate(
                            ext, cost2, cand, x_b, allowed_cols, 20 * m + 200
                        )
                        if status == "feasible":
                            x_b[x_b < 0.0] = 0.0
                            basis = cand
            except SingularBasis:
                basis = None

    if basis is None:
        try:
            basis = _Basis(ext, _crash_basis(ext, bw, n))
        except SingularBasis:
            basis = _Basis(ext, np.arange(n, n + m))
        x_b = basis.solve(bw)
        cost1 = np.zeros(n + m)
        cost1[n:] = 1.0
        status, x_b = _iterate(ext, cost1, basis, x_b, allowed_cols, max_iter)
        if status == "unbounded":
            raise NumericalBreakdown("phase-1 problem reported unbounded")
        infeas = float(cost1[basis.cols] @ x_b)
        if infeas > 1e-9 * (1.0 + np.abs(bw).sum()):
            return LpResult(status="infeasible")
        # Pivot remaining artificials out wherever the row is not redundant.
        for pos in range(m):
            if basis.cols[pos] < n:
                continue
            row = ext[:, :n].T @ basis.row(pos)
            row[basis.cols[basis.cols < n]] = 0.0
            pivots = np.abs(row) > 1e-7
            if pivots.any():
                q = int(np.argmax(pivots))
                d = basis.solve(ext[:, q])
                basis.update(pos, q, d)
            x_b[pos] = 0.0

    cost2 = np.concatenate([c, np.zeros(m)])
    status, x_b = _iterate(ext, cost2, basis, x_b, allowed_cols, max_iter)
    if status == "unbounded":
        return LpResult(status="unbounded", feasible_basis=basis.cols.copy())
    x_b, mu = _polish(basis, bw, cost2[basis.cols])
    scale_b = 1.0 + np.abs(bw).max(initial=0.0)
    final_resid = np.abs(ext[:, basis.cols] @ x_b - bw).max(initial=0.0)
    if final_resid > 1e-10 * scale_b:
        raise NumericalBreakdown(
            "final basis is too ill-conditioned for the feasibility target"
        )
    # The pivots clip drifting basics to zero, so a basis can end "optimal"
    # while its exact basic solution is negative; clipping here would hide
    # an infeasible point (and an objective below the optimum).
    if x_b.min(initial=0.0) < -1e-9 * scale_b:
        raise NumericalBreakdown("final basis is primal infeasible")
    x_b[x_b < 0.0] = 0.0
    x = np.zeros(n)
    original = basis.cols < n
    x[basis.cols[original]] = x_b[original]
    duals = mu * signs
    reduced = c - A.T @ duals
    reduced[basis.cols[original]] = 0.0
    return LpResult(
        status="optimal",
        x=x,
        duals=duals,
        reduced_costs=reduced,
        objective=float(c @ x),
        basis=basis.cols.copy(),
    )
