"""Revised primal simplex for dense standard-form LPs.

    min c . x   s.t.   A x = b,   x >= 0

Two-phase method with lowest-variable-index tie-breaking in the ratio
test.  Each phase prices by Dantzig's rule for ``STALL_LIMIT`` pivots and
by Bland's rule after them, so degenerate cycling cannot last.  (A progress
test once meant to delay that switch never fired: its best objective
started at inf, and ``inf - 1e-12 * (1 + inf)`` is NaN.)  All pivoting
rules are index-deterministic, so identical inputs produce identical
bases, primals and duals.

The basis kernel ``_Basis`` keeps an explicit dense inverse, changed by
rank-one updates at each pivot and rebuilt from an LU factorization every
``REFACTOR_EVERY`` updates, and the columns a pivot may bring in.  It owns
the one pivot rule (``_Basis.pivot_floor``): the primal ratio test takes
only pivots that the update accepts.  The inverse is kept rather than LU
factors with an eta file because the stage LPs are small (65-102 rows): at
65 rows ``inv @ v`` takes about 2 us against 16 us for ``lu_solve``, and
each eta step would add about 3 us of Python.  The factorization calls
LAPACK's ``dgetrf`` and ``dgetrs`` directly (``lu_factor``, ``lu_solve``):
the routines behind ``scipy.linalg.lu_factor`` and ``lu_solve``, with the
same results bit for bit, without their per-call argument handling.  A
solve that breaks down numerically is retried once from a cold start.

A solve can carry its basis inverse to the next solve of the same matrix
from the same columns (``CarriedFactor``), which then starts from it
instead of factorizing.  Between the two solves the extended matrix
differs only in the signs of rows (``_oriented_rows`` flips each row whose
right-hand side is negative), and the inverse of the flipped basis is the
old inverse with the flipped rows' columns negated.  A slot is one of two
kinds, fixed where it is made:
- A *fresh* slot (the QP's starting LP) holds the inverse that ``_polish``
  factorized at the end of the solve.  Starting from it is exact: LU with
  partial pivoting is sign-symmetric (the pivot search compares
  magnitudes, so flipping row i of B flips row i of L and leaves every
  rounding unchanged), so the carried inverse is the fresh inverse of the
  flipped basis bit for bit, and the result is that of a solve without
  the slot.
- A *live* slot (the policy simulation's) holds the inverse a solve ends
  on as it is, updates and all, with its update count: the next solve
  refactorizes on the ``REFACTOR_EVERY`` cadence counted across solves,
  and its ``_polish`` relies on iterative refinement instead of a fresh
  factorization.  When rows are appended to its matrix, each with its
  surplus slack, the held inverse is bordered by those slacks
  (``CarriedFactor.grow``).  Its results agree with a fresh solve only to
  rounding, and where optimal vertices tie they can differ.
A carried inverse must stay in Fortran order, as ``dgetrs`` returns it and
the updates keep it: BLAS rounds ``inv @ v`` and ``inv.T @ v`` differently
over a C-ordered copy of the same numbers, and that moves pivots.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import NumericalBreakdown

PIVOT_TOL = 1e-9
RATIO_TIE_TOL = 1e-12
REFACTOR_EVERY = 60
STALL_LIMIT = 800


class SingularBasis(NumericalBreakdown):
    """The candidate basis matrix is numerically singular."""


def lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factors and 0-based pivots of the square matrix ``a``, as
    ``scipy.linalg.lu_factor(a, check_finite=False)`` returns them.  An
    exactly zero pivot is left in the factors, without a warning."""
    lu, piv, info = dgetrf(a)
    if info < 0:
        raise ValueError(f"dgetrf: illegal value in argument {-info}")
    return lu, piv


def lu_solve(lu_and_piv, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
    """Solve ``a x = b`` from ``lu_factor(a)``, as
    ``scipy.linalg.lu_solve(lu_and_piv, b, check_finite=False)`` does.
    With ``overwrite_b``, a Fortran-ordered ``b`` is solved in place."""
    lu, piv = lu_and_piv
    x, info = dgetrs(lu, piv, b, overwrite_b=overwrite_b)
    if info < 0:
        raise ValueError(f"dgetrs: illegal value in argument {-info}")
    return x


class _Basis:
    """Explicit dense inverse of the basis, kept current by product-form
    updates and rebuilt from an LU factorization every ``REFACTOR_EVERY``
    updates.

    The basis is ``matrix[:, cols]`` over an extended matrix of
    ``_oriented_rows``, whose last m columns are artificials.  ``enterable``
    marks the nonbasic original columns, the only ones a pivot may bring
    in.  Solves are single matrix-vector products against the stored
    inverse.
    """

    PIVOT_REL = 1e-8
    # A live basis (a solve with a live ``CarriedFactor``) ends on its
    # updated inverse: ``_polish`` does not refactorize it first.
    live = False

    def __init__(
        self,
        matrix: np.ndarray,
        cols: np.ndarray,
        inv: np.ndarray | None = None,
        updates: int = 0,
    ):
        """Factorize ``matrix[:, cols]``, or take ``inv``, its inverse after
        ``updates`` rank-one updates since its factorization
        (``CarriedFactor.basis``)."""
        self.matrix = matrix
        self.n = matrix.shape[1] - matrix.shape[0]
        self.cols = np.array(cols, dtype=int)
        self.enterable = np.arange(matrix.shape[1]) < self.n
        self.enterable[self.cols] = False
        if inv is None:
            self.refactorize()
        else:
            self._inv = inv
            self._factored = self.cols.copy()
            self._updates = updates

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
            lu, piv = lu_factor(B)
            diag = np.abs(np.diag(lu))
            if diag.min() <= 1e-13 * max(1.0, diag.max()):
                raise SingularBasis("basis factorization failed: singular basis")
            self._inv = lu_solve((lu, piv), np.eye(m, order="F"), overwrite_b=True)
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
        old = self.cols[pos]
        self.enterable[old] = old < self.n
        self.enterable[new_col] = False
        self.cols[pos] = new_col
        if (
            self._updates >= REFACTOR_EVERY
            or abs(direction[pos]) <= self.pivot_floor(direction)
        ):
            self.refactorize()
            return
        row_p = self._inv[pos] / direction[pos]
        # The outer product direction row_p', built transposed so that it
        # shares the inverse's Fortran order: the same products, one
        # contiguous pass.
        self._inv -= (row_p[:, None] * direction).T
        self._inv[pos] = row_p
        self._updates += 1


class CarriedFactor:
    """The basis inverse a solve ended on, held for the next solve of the
    same matrix object ``A``.  A fresh slot (the default) holds the inverse
    ``_polish`` factorized; a ``live`` slot holds the inverse as the solve
    left it, with its update count (the module docstring says what each
    kind keeps).  ``A`` must not change in place while the factor is held."""

    __slots__ = ("live", "A", "cols", "signs", "inv", "updates")

    def __init__(self, live: bool = False):
        self.live = live
        self.A = self.cols = self.signs = self.inv = None
        self.updates = 0

    def keep(self, A: np.ndarray, signs: np.ndarray, basis: _Basis) -> None:
        """Hold the inverse of ``basis`` (fresh, unless the slot is live)
        over the extended matrix of ``A`` oriented by ``signs``.  A basis
        with an artificial column is not held: its identity column does not
        flip with its row."""
        if basis.cols.max(initial=-1) < A.shape[1]:
            self.A, self.cols, self.signs, self.inv = A, basis.cols, signs, basis._inv
            self.updates = basis._updates

    def take(self, A: np.ndarray, signs: np.ndarray, cols) -> np.ndarray | None:
        """The held inverse of the columns ``cols`` of ``A`` oriented by
        ``signs``, if held; the caller owns it and the slot is emptied.
        Otherwise ``None``."""
        if self.inv is None or self.A is not A or not np.array_equal(cols, self.cols):
            return None
        inv = self.inv
        flip = signs != self.signs
        if flip.any():
            # In place, so the inverse keeps its Fortran order.
            inv[:, flip] = -inv[:, flip]
        self.A = self.cols = self.signs = self.inv = None
        return inv

    def grow(self, old: np.ndarray, A: np.ndarray) -> None:
        """Follow the matrix ``old`` to ``A``, which appends k rows to it,
        each with its surplus slack (its one nonzero, -1) among the k new
        last columns.  A held inverse of ``old`` becomes that of its basis
        bordered by those slacks: ``[[B, 0], [R, -I]]``, whose inverse is
        ``[[B^-1, 0], [R B^-1, -I]]`` with R the new rows at the basic
        columns, in the rows' unflipped orientation.  The update count
        carries over."""
        if self.inv is None or self.A is not old:
            return
        m, k = old.shape[0], A.shape[0] - old.shape[0]
        inv = np.zeros((m + k, m + k), order="F")
        inv[:m, :m] = self.inv
        inv[m:, :m] = A[m:, self.cols] @ self.inv
        inv[m:, m:] = -np.eye(k)
        slacks = np.arange(A.shape[1] - k, A.shape[1])
        self.A, self.inv = A, inv
        self.cols = np.concatenate([self.cols, slacks])
        self.signs = np.concatenate([self.signs, np.ones(k)])

    def basis(self, ext: np.ndarray, A: np.ndarray, signs: np.ndarray, cols):
        """The ``_Basis`` of ``cols`` on ``ext``, the extended matrix of ``A``
        oriented by ``signs``, from the held inverse and its update count;
        ``None`` when ``take`` finds none."""
        updates = self.updates
        inv = self.take(A, signs, cols)
        return None if inv is None else _Basis(ext, cols, inv, updates)


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
    basis: _Basis, cost: np.ndarray, x_b: np.ndarray
) -> tuple[str, np.ndarray]:
    """Run primal simplex pivots until optimality/unboundedness.

    Only the kernel's enterable columns enter: Dantzig's choice for the
    first ``STALL_LIMIT`` pivots, Bland's after them.  Returns the terminal
    status and the final basic values.
    """
    matrix = basis.matrix
    m, width = matrix.shape
    tol = 1e-9 * (1.0 + np.abs(cost).max(initial=0.0))
    for it in range(200 * width + 10_000):
        mu = basis.solve_transpose(cost[basis.cols])
        reduced = cost - matrix.T @ mu
        enter_mask = basis.enterable & (reduced < -tol)
        if not enter_mask.any():
            return "optimal", x_b
        if it > STALL_LIMIT:
            q = int(np.argmax(enter_mask))
        else:
            q = int(np.argmin(np.where(enter_mask, reduced, np.inf)))
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
    raise NumericalBreakdown("simplex iteration limit reached")


def _dual_iterate(
    basis: _Basis, cost: np.ndarray, x_b: np.ndarray, reduced: np.ndarray
) -> tuple[str, np.ndarray]:
    """Dual simplex pivots from a dual-feasible basis until the basics turn
    nonnegative.  Returns "feasible" on success, "dual-unbounded" when some
    row cannot be repaired, "stalled" past the iteration cap; the caller
    falls back to a cold start on anything but success.

    ``reduced`` holds the reduced costs of ``cost`` at the starting basis
    (it is overwritten).  They are updated incrementally and refreshed
    periodically.
    """
    matrix = basis.matrix
    tol_p = 1e-9
    for it in range(20 * matrix.shape[0] + 200):
        p = int(np.argmin(x_b))
        if x_b[p] >= -tol_p:
            return "feasible", x_b
        if it % 40 == 39:
            mu = basis.solve_transpose(cost[basis.cols])
            reduced = cost - matrix.T @ mu
        np.maximum(reduced, 0.0, out=reduced)
        row = basis.row(p) @ matrix
        cand = basis.enterable & (row < -PIVOT_TOL)
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
    m, n = A.shape
    ext = np.zeros((m, n + m))
    np.multiply(A, signs[:, None], out=ext[:, :n])
    ext.reshape(-1)[n :: n + m + 1] = 1.0  # the identity block
    return signs, ext, b * signs


def _crash_basis(ext: np.ndarray) -> np.ndarray:
    """Initial basis for phase 1 on the extended matrix of
    ``_oriented_rows``: per row, a positive singleton column when one
    exists (slack-style), the artificial otherwise."""
    m = ext.shape[0]
    n = ext.shape[1] - m
    nz_per_col = np.count_nonzero(ext[:, :n], axis=0)
    cols = np.arange(n, n + m)
    for j in np.where(nz_per_col == 1)[0]:
        i = int(np.argmax(ext[:, j] != 0.0))
        if cols[i] >= n and ext[i, j] > PIVOT_TOL:
            cols[i] = j
    return cols


def _warm_basis(ext: np.ndarray, bw: np.ndarray, start_basis, basis_of=None):
    """Factorize a warm start on the extended matrix of ``_oriented_rows``,
    or take its carried basis from ``basis_of(cols)`` when that returns one.

    Returns ``(basis, x_b, feasible)``, with ``x_b`` the basic values at
    ``bw`` (clipped at zero when ``feasible``, that is when none is below
    -1e-9), or ``None`` when ``start_basis`` is absent or is not m distinct
    original columns.  A singular start raises ``SingularBasis``.  The LP
    and the QP both take their warm start through here.
    """
    if start_basis is None:
        return None
    m = bw.shape[0]
    n = ext.shape[1] - m
    cols = np.asarray(start_basis, dtype=int)
    basis = None if basis_of is None else basis_of(cols)
    # A held inverse vouches for its columns: they ended a solve.
    if basis is None:
        if not (
            cols.shape == (m,)
            and len(np.unique(cols)) == m
            and cols.min(initial=0) >= 0
            and cols.max(initial=-1) < n
        ):
            return None
        basis = _Basis(ext, cols)
    x_b = basis.solve(bw)
    feasible = x_b.min(initial=0.0) >= -1e-9
    if feasible:
        x_b[x_b < 0.0] = 0.0
    return basis, x_b, feasible


def _refine(solve, M: np.ndarray, v: np.ndarray):
    """``solve(v)``, an approximate solution of ``M x = v``, refined by up
    to five steps; returns it and whether its residual reached 1e-14 of
    1 + max|v|."""
    x = solve(v)
    scale = 1.0 + np.abs(v).max(initial=0.0)
    for _ in range(5):
        resid = v - M @ x
        if np.abs(resid).max(initial=0.0) <= 1e-14 * scale:
            return x, True
        x = x + solve(resid)
    return x, False


def _polish(basis: _Basis, rhs: np.ndarray, cost_basic: np.ndarray):
    """Recompute basic values and duals at the final basis with iterated
    refinement (effective up to condition numbers around 1e13), on a fresh
    factorization.  A live basis keeps its updated inverse and relies on
    the refinement; when that misses 1e-14, the basis stops being live and
    is polished again, from a fresh factorization."""
    if not basis.live:
        basis.refresh()
    B = basis.matrix[:, basis.cols]
    x_b, primal_ok = _refine(basis.solve, B, rhs)
    mu, dual_ok = _refine(basis.solve_transpose, B.T, cost_basic)
    if basis.live and not (primal_ok and dual_ok):
        basis.live = False
        return _polish(basis, rhs, cost_basic)
    return x_b, mu


def solve_standard_lp(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    start_basis: np.ndarray | None = None,
    carry: CarriedFactor | None = None,
) -> LpResult:
    """Solve a standard-form LP, returning a vertex primal and the matching
    basic dual solution.

    ``start_basis`` is an optional warm start: a set of m column indices
    whose basis is tried first (repaired by dual simplex when only the rhs
    moved); otherwise the solve is a two-phase cold start.  Every pivot
    follows the basis kernel's one pivot rule.  A numerical breakdown is
    retried once from a cold start before it propagates.

    With ``carry``, a start basis whose inverse ``carry`` holds for this
    ``A`` starts from that inverse instead of a factorization, and the
    solve leaves its own final inverse there.  With a fresh slot the result
    is bit for bit the one without ``carry``; with a live slot it agrees
    with that one to rounding, except where optimal vertices tie (module
    docstring).
    """
    try:
        return _solve_lp_once(A, b, c, start_basis, carry)
    except NumericalBreakdown:
        return _solve_lp_once(A, b, c, None, carry)


def _solve_lp_once(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    start_basis: np.ndarray | None,
    carry: CarriedFactor | None,
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
    cost2 = np.concatenate([c, np.zeros(m)])

    basis = None
    try:
        warm = _warm_basis(
            ext, bw, start_basis, None if carry is None else partial(carry.basis, ext, A, signs)
        )
        if warm is not None:
            cand, x_b, feasible = warm
            if feasible:
                basis = cand
            else:
                # Primal infeasible warm basis: repair by dual simplex if
                # the basis is still dual feasible (the usual case when
                # only rhs entries or appended cut rows changed).
                mu = cand.solve_transpose(cost2[cand.cols])
                reduced = cost2 - ext.T @ mu
                dual_ok = (
                    reduced[:n].min(initial=0.0)
                    >= -1e-7 * (1.0 + np.abs(c).max(initial=0.0))
                )
                if dual_ok:
                    status, x_b = _dual_iterate(cand, cost2, x_b, reduced)
                    if status == "feasible":
                        x_b[x_b < 0.0] = 0.0
                        basis = cand
    except SingularBasis:
        basis = None

    if basis is None:
        try:
            basis = _Basis(ext, _crash_basis(ext))
        except SingularBasis:
            basis = _Basis(ext, np.arange(n, n + m))
        x_b = basis.solve(bw)
        cost1 = np.zeros(n + m)
        cost1[n:] = 1.0
        status, x_b = _iterate(basis, cost1, x_b)
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
            pivots = basis.enterable[:n] & (np.abs(row) > 1e-7)
            if pivots.any():
                q = int(np.argmax(pivots))
                basis.update(pos, q, basis.solve(ext[:, q]))
            x_b[pos] = 0.0

    status, x_b = _iterate(basis, cost2, x_b)
    if status == "unbounded":
        return LpResult(status="unbounded", feasible_basis=basis.cols.copy())
    basis.live = carry is not None and carry.live
    x_b, mu = _polish(basis, bw, cost2[basis.cols])
    if carry is not None:
        carry.keep(A, signs, basis)
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
