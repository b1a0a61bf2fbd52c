"""Primal active-set method for convex standard-form QPs.

    min c . y + 1/2 y' G y   s.t.   A y = b,   y >= 0,    G PSD

Reduced-space scheme warm-started from a vertex of the feasible region
(the optimum of the LP relaxation when it exists): the working set is the
complement of basic + superbasic variables, search directions live in the
null space spanned by the superbasic columns, and the reduced Newton system
is solved by least squares so flat (zero-curvature) directions fall back to
simplex-like ratio steps.  All choices are index-deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown
from .simplex import _Basis, _oriented_rows, solve_standard_lp

SUBSPACE_TOL = 1e-10
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
    explicit inverse, cadence and pivot rule).  A numerical breakdown is
    retried once from a cold start before it propagates."""
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

    lp = solve_standard_lp(A, b, c, start_basis=start_basis)
    if lp.status == "infeasible":
        return QpResult(status="infeasible")
    if lp.status == "unbounded":
        if lp.feasible_basis is None:
            return QpResult(status="unbounded")
        start_cols = lp.feasible_basis
    else:
        start_cols = lp.basis

    signs, ext, bw = _oriented_rows(A, b)

    def gradient(y: np.ndarray) -> np.ndarray:
        g = np.zeros(n + m)
        g[:n] = c + G @ y[:n]
        return g

    basis = _Basis(ext, start_cols)
    y = np.zeros(n + m)
    y[basis.cols] = np.maximum(basis.solve(bw), 0.0)
    super_cols: list[int] = []
    allowed = np.zeros(n + m, dtype=bool)
    allowed[:n] = True

    max_iter = 50 * (n + m) + 2_000
    stall = 0
    bland = False

    for _ in range(max_iter):
        g = gradient(y)
        mu = basis.solve_transpose(g[basis.cols])
        lam = g - ext.T @ mu
        lam[basis.cols] = 0.0
        scale = 1.0 + np.abs(g).max(initial=0.0)
        tol = 1e-9 * scale

        if super_cols:
            lam_s = lam[super_cols]
        else:
            lam_s = np.zeros(0)

        just_added = False
        if lam_s.size == 0 or np.abs(lam_s).max() <= tol:
            mask = allowed.copy()
            mask[basis.cols] = False
            if super_cols:
                mask[super_cols] = False
            mask &= lam < -tol
            if not mask.any():
                return _finish(basis, ext, bw, signs, y, super_cols, c, G, n, m)
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
            Wmat = np.column_stack([basis.solve(ext[:, j]) for j in super_cols])
            Z = np.zeros((n + m, s))
            for l, j in enumerate(super_cols):
                Z[j, l] = 1.0
            Z[np.ix_(basis.cols, range(s))] -= Wmat

            GZ = np.zeros((n + m, s))
            GZ[:n] = G @ Z[:n]
            M = Z.T @ GZ
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
        if neg.any():
            ratios[neg] = -vals[neg] / dv[neg]
        alpha_max = ratios.min() if neg.any() else np.inf
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
                _swap_into_basis(basis, ext, pos, super_cols, n)
        if alpha > 1e-12:
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > MAX_STALL:
                raise NumericalBreakdown("QP active-set stalled at a degenerate point")
            bland = True

    raise NumericalBreakdown("QP active-set iteration limit reached")


def _swap_into_basis(
    basis: _Basis, ext: np.ndarray, pos: int, super_cols: list[int], n: int
) -> None:
    """A basic variable hit its bound: bring a superbasic into the basis in
    its place when a safe pivot exists.  Otherwise exchange it for the
    nonbasic original column with the largest pivot in its row (lowest
    index on ties).  That column sits at zero, so the exchange is
    degenerate: ``y`` stays put but the working set changes, and the next
    direction is not blocked by the same variable again.  Only a row with
    no safe pivot at all leaves the basis unchanged."""
    row = np.abs(basis.row(pos) @ ext[:, :n])
    if super_cols:
        best = int(np.argmax(row[super_cols]))
        if row[super_cols[best]] > 1e-7:
            entering = super_cols.pop(best)
            basis.update(pos, entering, basis.solve(ext[:, entering]))
            return
    row[basis.cols[basis.cols < n]] = 0.0
    row[super_cols] = 0.0
    entering = int(np.argmax(row))
    if row[entering] > 1e-7:
        basis.update(pos, entering, basis.solve(ext[:, entering]))


def _finish(
    basis: _Basis,
    ext: np.ndarray,
    bw: np.ndarray,
    signs: np.ndarray,
    y: np.ndarray,
    super_cols: list[int],
    c: np.ndarray,
    G: np.ndarray,
    n: int,
    m: int,
) -> QpResult:
    """Final polish: the active-set loop only identifies the working set;
    the exact point and multipliers come from one KKT solve over the free
    variables, wiping out any incremental drift."""
    free = basis.cols.tolist() + list(super_cols)
    F = np.array(free, dtype=int)
    nf = F.shape[0]
    G_FF = np.zeros((nf, nf))
    orig = F < n
    if orig.any():
        io = np.where(orig)[0]
        G_FF[np.ix_(io, io)] = G[np.ix_(F[io], F[io])]
    E = ext[:, F]
    c_ext = np.zeros(n + m)
    c_ext[:n] = c
    K = np.zeros((nf + m, nf + m))
    K[:nf, :nf] = G_FF
    K[:nf, nf:] = E.T
    K[nf:, :nf] = E
    rhs = np.concatenate([-c_ext[F], bw])
    scale = 1.0 + np.abs(rhs).max(initial=0.0)
    try:
        sol = np.linalg.solve(K, rhs)
        for _ in range(4):
            resid = rhs - K @ sol
            if np.abs(resid).max(initial=0.0) <= 1e-13 * scale:
                break
            sol = sol + np.linalg.solve(K, resid)
        ok = np.abs(K @ sol - rhs).max(initial=0.0) <= 1e-8 * scale
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
        if np.abs(K @ sol - rhs).max(initial=0.0) > 1e-8 * scale:
            raise NumericalBreakdown("QP working-set KKT system is inconsistent")
    y_f = sol[:nf]
    mu = -sol[nf:]
    if y_f.min(initial=0.0) < -1e-7 * (1.0 + np.abs(y_f).max(initial=0.0)):
        raise NumericalBreakdown(
            "QP active set terminated with an infeasible working set"
        )
    y = np.zeros(n + m)
    y[F] = np.maximum(y_f, 0.0)

    g = np.zeros(n + m)
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
        n_superbasic=len(super_cols),
    )
