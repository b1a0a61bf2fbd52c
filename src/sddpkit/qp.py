"""Primal active-set method for convex standard-form QPs.

    min c . y + 1/2 y' G y   s.t.   A y = b,   y >= 0,    G PSD

Reduced-space scheme on the simplex's basis kernel, started from a vertex
of the feasible region: the start basis itself when it is primal feasible
at this right-hand side (the active set needs a feasible vertex, not the LP
optimum), and otherwise the vertex of the LP relaxation, solved warm from
that basis.  The working set is the complement of basic + superbasic
variables, search directions live in the null space spanned by the
superbasic columns, and the reduced Newton system is solved by least
squares so flat (zero-curvature) directions fall back to simplex-like ratio
steps.  At the optimal working set one last reduced Newton step places the
superbasics and the kernel's ``_polish`` recomputes the basics and the
multipliers, as at the end of an LP solve.  All choices are
index-deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown
from .simplex import (
    CarriedFactor,
    _Basis,
    _oriented_rows,
    _polish,
    _warm_basis,
    solve_standard_lp,
)

MAX_STALL = 200


@dataclass
class QpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    objective: float = np.nan
    basis: np.ndarray | None = None
    n_superbasic: int = 0


def solve_standard_qp(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    G: np.ndarray,
    start_basis: np.ndarray | None = None,
) -> QpResult:
    """Warm-startable convex QP solve on the simplex's basis kernel (its
    explicit inverse, cadence and pivot rule).  A primal-feasible
    ``start_basis`` is the starting vertex; any other start goes to the
    starting LP.  The final point and multipliers come from one reduced
    Newton step and the kernel's ``_polish``.  A numerical breakdown is
    retried once cold."""
    try:
        return _solve_qp_once(A, b, c, G, start_basis)
    except NumericalBreakdown:
        return _solve_qp_once(A, b, c, G, None)


def _solve_qp_once(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    G: np.ndarray,
    start_basis: np.ndarray | None,
) -> QpResult:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    G = np.asarray(G, dtype=float)
    m, n = A.shape
    signs, ext, bw = _oriented_rows(A, b)

    basis, x_b, feasible = _warm_basis(ext, bw, start_basis) or (None, None, False)
    if not feasible:
        # The starting LP orients A as this QP does: it starts from the
        # start basis's inverse factorized above and leaves the fresh
        # inverse of its final basis, which the QP takes over.
        carry = CarriedFactor()
        if basis is not None:
            carry.keep(A, signs, basis)
        lp = solve_standard_lp(A, b, c, start_basis=start_basis, carry=carry)
        if lp.status == "infeasible":
            return QpResult(status="infeasible")
        if lp.status == "unbounded" and lp.feasible_basis is None:
            return QpResult(status="unbounded")
        cols = lp.basis if lp.status == "optimal" else lp.feasible_basis
        basis = _Basis(ext, cols, carry.take(A, signs, cols))
        x_b = np.maximum(basis.solve(bw), 0.0)
    y = np.zeros(n + m)
    y[basis.cols] = x_b
    super_cols: list[int] = []
    stall = 0
    bland = False

    for _ in range(50 * (n + m) + 2_000):
        g = np.zeros(n + m)
        g[:n] = c + G @ y[:n]
        mu = basis.solve_transpose(g[basis.cols])
        lam = g - ext.T @ mu
        lam[basis.cols] = 0.0
        scale = 1.0 + np.abs(g).max(initial=0.0)
        tol = 1e-9 * scale

        just_added = False
        if np.abs(lam[super_cols]).max(initial=0.0) <= tol:
            mask = basis.enterable & (lam < -tol)
            mask[super_cols] = False
            if not mask.any():
                return _finish(basis, bw, signs, y, lam, super_cols, c, G)
            if bland:
                q = int(np.argmax(mask))
            else:
                q = int(np.argmin(np.where(mask, lam, np.inf)))
            super_cols.append(q)
            just_added = True

        # Subspace direction over the superbasics.  Zero-valued superbasics
        # whose least-squares direction turns negative are pinned back to
        # the working set (dropping them is only legal at value zero); a
        # just-added variable in that situation moves alone instead, which
        # is always a strict descent direction.
        while True:
            s = len(super_cols)
            Z, M = _subspace(basis, super_cols, G)
            rhs = -lam[super_cols]
            step, *_ = np.linalg.lstsq(M, rhs, rcond=None)
            resid = M @ step - rhs
            resid_norm = np.abs(resid).max(initial=0.0)
            if resid_norm <= 1e-7 * (1.0 + np.abs(rhs).max()):
                target = 1.0  # Newton step to the subspace minimizer
            else:
                # Genuinely inconsistent: descend along the (normalized)
                # null-space component of the gradient.
                step = -resid / resid_norm
                target = np.inf
            pinned = [
                l
                for l, j in enumerate(super_cols)
                if y[j] <= 1e-12 and step[l] < -1e-12
            ]
            droppable = [l for l in pinned if not (just_added and l == s - 1)]
            if droppable:
                for l in reversed(droppable):
                    super_cols.pop(l)
                if super_cols:
                    continue
                Z = np.zeros((n + m, 0))
                step = np.zeros(0)
                target = 1.0
                break
            if pinned and just_added and (s - 1) in pinned:
                # Move only the fresh variable; curvature >= 0 and its
                # reduced gradient is negative, so this descends.
                step = np.zeros(s)
                curv = M[s - 1, s - 1]
                if curv > 1e-12 * (1.0 + abs(rhs[s - 1])):
                    step[s - 1] = rhs[s - 1] / curv
                    target = 1.0
                else:
                    step[s - 1] = max(rhs[s - 1], tol)
                    target = np.inf
            break

        dy = Z @ step
        if np.abs(dy).max(initial=0.0) <= 1e-13:
            stall += 1
            bland = True
            if stall > MAX_STALL:
                raise NumericalBreakdown("QP active-set stalled")
            if super_cols and y[super_cols[-1]] <= 1e-12:
                super_cols.pop()
            else:
                basis.refactorize()
            continue

        moving = basis.cols.tolist() + super_cols
        dv = dy[moving]
        vals = y[moving]
        neg = dv < -1e-12
        ratios = np.full(dv.shape, np.inf)
        ratios[neg] = -vals[neg] / dv[neg]
        alpha_max = ratios.min(initial=np.inf)
        alpha = min(target, alpha_max)
        if not np.isfinite(alpha):
            return QpResult(status="unbounded")

        y += alpha * dy
        y[y < 0.0] = 0.0

        if alpha < target - 1e-12:
            tied = np.where(
                neg & (ratios <= alpha_max + 1e-12 * (1.0 + alpha_max))
            )[0]
            var_ids = np.array([moving[i] for i in tied])
            block = int(var_ids[np.argmin(var_ids)])
            y[block] = 0.0
            if block in super_cols:
                super_cols.remove(block)
            else:
                pos = int(np.where(basis.cols == block)[0][0])
                _swap_into_basis(basis, pos, super_cols)
        if alpha > 1e-12:
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > MAX_STALL:
                raise NumericalBreakdown("QP active-set stalled at a degenerate point")
            bland = True

    raise NumericalBreakdown("QP active-set iteration limit reached")


def _swap_into_basis(basis: _Basis, pos: int, super_cols: list[int]) -> None:
    """A basic variable hit its bound: bring a superbasic into the basis in
    its place when a safe pivot exists.  Otherwise exchange it for the
    nonbasic original column with the largest pivot in its row (lowest
    index on ties).  That column sits at zero, so the exchange is
    degenerate: ``y`` stays put but the working set changes, and the next
    direction is not blocked by the same variable again.  Only a row with
    no safe pivot at all leaves the basis unchanged."""
    ext, n = basis.matrix, basis.n
    row = np.abs(basis.row(pos) @ ext[:, :n])
    if super_cols:
        best = int(np.argmax(row[super_cols]))
        if row[super_cols[best]] > 1e-7:
            entering = super_cols.pop(best)
            basis.update(pos, entering, basis.solve(ext[:, entering]))
            return
    row[~basis.enterable[:n]] = 0.0
    row[super_cols] = 0.0
    entering = int(np.argmax(row))
    if row[entering] > 1e-7:
        basis.update(pos, entering, basis.solve(ext[:, entering]))


def _subspace(
    basis: _Basis, S: list[int], G: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Null-space basis Z of the working set and the reduced Hessian
    Z[:n]' G Z[:n], from one basis solve: Z has unit entries on the
    superbasics ``S`` and -B^{-1} N_S on the basics."""
    ext, n = basis.matrix, basis.n
    Z = np.zeros((ext.shape[1], len(S)))
    Z[S, range(len(S))] = 1.0
    Z[basis.cols] -= basis.solve(ext[:, S])
    return Z, Z[:n].T @ (G @ Z[:n])


def _finish(
    basis: _Basis,
    bw: np.ndarray,
    signs: np.ndarray,
    y: np.ndarray,
    lam: np.ndarray,
    S: list[int],
    c: np.ndarray,
    G: np.ndarray,
) -> QpResult:
    """The loop only identifies the working set.  One reduced Newton step on
    the superbasics ``S``, against their reduced gradient ``lam``, reaches
    its minimizer; ``_polish`` then recomputes the basics from
    ``bw - N_S y_S`` and the duals from ``g_B``, wiping out any drift."""
    ext, n = basis.matrix, basis.n
    if S:
        Z, M = _subspace(basis, S, G)
        step, *_ = np.linalg.lstsq(M, -lam[S], rcond=None)
        y = y + Z @ step
    g = np.zeros_like(y)
    g[:n] = c + G @ y[:n]
    y_s = y[S]
    x_b, mu = _polish(basis, bw - ext[:, S] @ y_s, g[basis.cols])
    F = basis.cols.tolist() + S
    y_f = np.concatenate([x_b, y_s])
    if y_f.min(initial=0.0) < -1e-7 * (1.0 + np.abs(y_f).max(initial=0.0)):
        raise NumericalBreakdown(
            "QP active set terminated with an infeasible working set"
        )
    scale = 1.0 + np.abs(bw).max(initial=0.0)
    if np.abs(ext[:, F] @ y_f - bw).max(initial=0.0) > 1e-8 * scale:
        raise NumericalBreakdown("QP working-set point misses the constraints")
    y = np.zeros_like(y)
    y[F] = np.maximum(y_f, 0.0)
    g[:n] = c + G @ y[:n]
    lam = g - ext.T @ mu
    lam[F] = 0.0

    x = y[:n].copy()
    objective = float(c @ x + 0.5 * x @ (G @ x))
    return QpResult(
        status="optimal",
        x=x,
        duals=mu * signs,
        reduced_costs=lam[:n].copy(),
        objective=objective,
        basis=basis.cols.copy(),
        n_superbasic=len(S),
    )
