"""Stage subproblem contract: specs, solutions, the bundled solver, the
post-solve residual verification and the replay file of a failed solve.

The bundled solver pairs the revised simplex (LPs, basic duals) with the
primal active-set method (regularized QPs).  Any replacement only has to
honor :class:`SubproblemSolver`.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from . import qp, simplex
from .model import read_json, write_json

SUBPROBLEM_FORMAT = "sddpkit-subproblem"
SUBPROBLEM_VERSION = 1


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SubproblemSpec:
    """Standard-form stage problem ``min c.y (+ rho/2 y'Hy) s.t. Ay = rhs,
    y >= 0``.  Any linking contribution is already folded into ``rhs``.

    ``factor``, when set, is the slot in which the bundled solver carries
    an LP's basis inverse from one solve of this ``A`` to the next; the
    slot starts a solve from it only if it was held for this very ``A``
    object, which must not change in place.  A fresh slot changes no
    result.  A live slot (the policy simulation's) changes results only
    to rounding, and decisions only where optimal vertices tie
    (``simplex.CarriedFactor``).  No replay file records it."""

    c: np.ndarray
    A: np.ndarray
    rhs: np.ndarray
    quad: tuple[float, np.ndarray] | None = None
    factor: simplex.CarriedFactor | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))
        if self.A.ndim != 2:
            raise ValueError("A must be a matrix")
        m, n = self.A.shape
        if self.c.shape != (n,):
            raise ValueError(f"cost has shape {self.c.shape}, expected ({n},)")
        if self.rhs.shape != (m,):
            raise ValueError(f"rhs has shape {self.rhs.shape}, expected ({m},)")
        if self.quad is not None:
            rho, H = self.quad
            H = np.asarray(H, dtype=float)
            object.__setattr__(self, "quad", (float(rho), H))
            if rho < 0.0:
                raise ValueError("quadratic penalty coefficient must be >= 0")
            if H.shape != (n, n):
                raise ValueError(f"H has shape {H.shape}, expected ({n}, {n})")

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def n_cols(self) -> int:
        return self.A.shape[1]

    def validate(self) -> list[str]:
        """Full invariant check, including the attempted factorization that
        certifies H is symmetric positive semidefinite."""
        out = []
        for name, arr in (("c", self.c), ("A", self.A), ("rhs", self.rhs)):
            if arr.size and not np.all(np.isfinite(arr)):
                out.append(f"{name} contains non-finite entries")
        if self.quad is not None:
            rho, H = self.quad
            if H.size and not np.all(np.isfinite(H)):
                out.append("H contains non-finite entries")
            elif H.size:
                scale = max(1.0, float(np.abs(H).max()))
                if np.abs(H - H.T).max() > 1e-10 * scale:
                    out.append("H is not symmetric")
                else:
                    try:
                        np.linalg.cholesky(H + 1e-10 * scale * np.eye(H.shape[0]))
                    except np.linalg.LinAlgError:
                        out.append("H is not positive semidefinite")
        return out


@dataclass
class SubproblemSolution:
    status: SolveStatus
    y: np.ndarray | None = None
    objective: float = np.nan
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    basis: np.ndarray | None = None


class SubproblemSolver(Protocol):
    """Abstract solver contract the engine calls through."""

    def solve(
        self, spec: SubproblemSpec, start_basis: np.ndarray | None = None
    ) -> SubproblemSolution: ...


class BundledSolver:
    """Reference implementation of the solver contract; a vanished penalty
    routes to the LP path."""

    def solve(
        self, spec: SubproblemSpec, start_basis: np.ndarray | None = None
    ) -> SubproblemSolution:
        if spec.quad is None or spec.quad[0] == 0.0:
            res = simplex.solve_standard_lp(
                spec.A, spec.rhs, spec.c, start_basis=start_basis, carry=spec.factor
            )
        else:
            rho, H = spec.quad
            res = qp.solve_standard_qp(
                spec.A, spec.rhs, spec.c, rho * H, start_basis=start_basis
            )
        if res.status != "optimal":
            return SubproblemSolution(status=SolveStatus(res.status))
        return SubproblemSolution(
            status=SolveStatus.OPTIMAL,
            y=res.x,
            objective=res.objective,
            duals=res.duals,
            reduced_costs=res.reduced_costs,
            basis=res.basis,
        )


def verify_residuals(
    sol: SubproblemSolution, spec: SubproblemSpec, eps_f: float
) -> bool:
    """Relative primal feasibility check ||Ay - rhs|| / (1 + ||rhs||) <= eps_f."""
    if sol.status is not SolveStatus.OPTIMAL:
        raise ValueError("residual verification requires an Optimal solution")
    resid = np.linalg.norm(spec.A @ sol.y - spec.rhs)
    return bool(resid / (1.0 + np.linalg.norm(spec.rhs)) <= eps_f)


def complementarity_gap(sol: SubproblemSolution) -> float:
    """Largest elementwise product |y_i * lambda_i|."""
    if sol.y is None or sol.reduced_costs is None:
        return np.nan
    if sol.y.size == 0:
        return 0.0
    return float(np.abs(sol.y * sol.reduced_costs).max())


def kkt_residuals(sol: SubproblemSolution, spec: SubproblemSpec) -> dict[str, float]:
    """Stationarity / feasibility / complementarity residuals of the KKT
    system for the (possibly regularized) spec."""
    y = sol.y
    grad = spec.c.copy()
    if spec.quad is not None:
        rho, H = spec.quad
        grad = grad + rho * (H @ y)
    lam = sol.reduced_costs
    stat = grad - spec.A.T @ sol.duals - lam
    return {
        "stationarity": float(np.abs(stat).max(initial=0.0)),
        "feasibility": float(np.abs(spec.A @ y - spec.rhs).max(initial=0.0)),
        "complementarity": complementarity_gap(sol),
        "dual_sign": float(max(0.0, -(lam.min(initial=0.0)))),
    }


def _triplets(M: np.ndarray) -> dict:
    rows, cols = np.nonzero(M)
    return {"rows": rows.tolist(), "cols": cols.tolist(), "vals": M[rows, cols].tolist()}


def _from_triplets(obj: dict, m: int, n: int) -> np.ndarray:
    M = np.zeros((m, n))
    M[obj["rows"], obj["cols"]] = obj["vals"]
    return M


def save_subproblem(
    spec: SubproblemSpec, path, start_basis=None, context: dict | None = None
) -> None:
    """Write a spec and the start basis it was solved from as a replay file;
    ``context`` is free JSON (the engine records the solve key and error).
    ``A`` and ``H`` are stored as coordinate triplets of their nonzeros."""
    body = {
        "m": spec.n_rows,
        "n": spec.n_cols,
        "A": _triplets(spec.A),
        "rhs": spec.rhs.tolist(),
        "c": spec.c.tolist(),
        "context": context or {},
    }
    if spec.quad is not None:
        rho, H = spec.quad
        body["quad"] = {"rho": rho, "H": _triplets(H)}
    if start_basis is not None:
        body["start_basis"] = np.asarray(start_basis).tolist()
    write_json(path, SUBPROBLEM_FORMAT, SUBPROBLEM_VERSION, body)


def _subproblem_from_obj(obj: dict):
    n, quad, start = obj["n"], obj.get("quad"), obj.get("start_basis")
    spec = SubproblemSpec(
        c=obj["c"],
        A=_from_triplets(obj["A"], obj["m"], n),
        rhs=obj["rhs"],
        quad=None if quad is None else (quad["rho"], _from_triplets(quad["H"], n, n)),
    )
    return spec, None if start is None else np.array(start), obj["context"]


def load_subproblem(path) -> tuple[SubproblemSpec, np.ndarray | None, dict]:
    """Read a file of :func:`save_subproblem`; replay it with
    ``BundledSolver().solve(spec, start_basis)``."""
    return read_json(
        path, SUBPROBLEM_FORMAT, SUBPROBLEM_VERSION, "subproblem", _subproblem_from_obj
    )
