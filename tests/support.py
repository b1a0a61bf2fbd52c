"""Shared test instances and independent oracles.

The oracles here (vertex enumeration, hand-built instances with known
optima) deliberately avoid the library's simplex/QP code paths so the two
sides of every comparison stay independent.
"""
from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from sddpkit.model import (
    MultistageProblem,
    ProcessKind,
    StageRealization,
    UncertaintyProcess,
)

# Captured solver inputs, in the replay format of ``sddpkit.subproblem``.
FIXTURES = Path(__file__).parent / "fixtures"


def newsvendor() -> MultistageProblem:
    """Two-epoch instance: buy up to 3 units at cost 1, then cover demand
    of 1 or 2 (probability one half each) at shortfall cost 10.

    Exact optimum 2 at a first-stage order of 2.
    """
    stage0 = StageRealization(
        A=[[1.0, 1.0]], B=[[1.0, 0.0]], b=[3.0], c=[1.0, 0.0]
    )
    recourse = [
        StageRealization(
            A=[[1.0, -1.0]], B=np.zeros((0, 2)), b=[d], c=[10.0, 0.0]
        )
        for d in (1.0, 2.0)
    ]
    process = UncertaintyProcess(
        kind=ProcessKind.STAGEWISE_INDEPENDENT,
        outcomes=(tuple(recourse),),
        probs=(np.array([0.5, 0.5]),),
    )
    return MultistageProblem(
        T=1, stage0=stage0, process=process, resource_dims=(1,)
    )


def _recourse_stage(
    rng: np.random.Generator,
    r: int,
    caps: dict,
    demand: np.ndarray,
    shortage_cost: np.ndarray,
    terminal: bool,
) -> StageRealization:
    """One stage of the buy/shortage/carry family.

    Variables: a (buy), u (shortage), w (carry-over excess), then one slack
    per capacity row.  Rows: linking balance u - w + g a = d - R_prev,
    then caps on a, u, w.
    """
    n = 6 * r
    A = np.zeros((4 * r, n))
    g = caps["couple"]
    for i in range(r):
        A[i, r + i] = 1.0  # u
        A[i, 2 * r + i] = -1.0  # w
        A[i, i] = g[i]  # a enters the balance
        A[r + i, i] = 1.0
        A[r + i, 3 * r + i] = 1.0
        A[2 * r + i, r + i] = 1.0
        A[2 * r + i, 4 * r + i] = 1.0
        A[3 * r + i, 2 * r + i] = 1.0
        A[3 * r + i, 5 * r + i] = 1.0
    b = np.concatenate([demand, caps["a"], caps["u"], caps["w"]])
    if terminal:
        B = np.zeros((0, n))
    else:
        B = np.zeros((r, n))
        for i in range(r):
            B[i, i] = 1.0
            B[i, 2 * r + i] = caps["kappa"][i]
    c = np.zeros(n)
    c[:r] = caps["buy_cost"]
    c[r : 2 * r] = shortage_cost
    c[2 * r : 3 * r] = caps["carry_cost"]
    return StageRealization(A=A, B=B, b=b, c=c)


def random_recourse_instance(
    seed: int,
    markov: bool = False,
    T: int | None = None,
    max_outcomes: int = 3,
    max_dim: int = 3,
) -> tuple[MultistageProblem, np.ndarray]:
    """Random enumerable instance with relatively complete recourse on the
    whole resource box by construction.

    Returns the problem and the per-dimension upper corner of the reachable
    resource box (the lower corner is 0).
    """
    rng = np.random.default_rng(seed)
    T = T if T is not None else int(rng.integers(2, 5))
    r = int(rng.integers(1, max_dim + 1))
    dmax = 3.0
    kappa = rng.uniform(0.0, 0.8, size=r)
    cap_a = rng.uniform(1.0, 4.0, size=r)
    cap_u = np.full(r, dmax + 1.0)
    cap_w = (1.5 * cap_a + dmax + 1.0) / (1.0 - kappa)
    box_hi = cap_a + kappa * cap_w
    caps = {
        "a": cap_a,
        "u": cap_u,
        "w": cap_w,
        "kappa": kappa,
        "couple": rng.uniform(0.0, 0.5, size=r),
        "buy_cost": rng.uniform(0.3, 1.5, size=r),
        "carry_cost": rng.uniform(0.1, 1.0, size=r),
    }

    cap0 = rng.uniform(0.5, 1.0, size=r) * cap_a
    stage0 = StageRealization(
        A=np.hstack([np.eye(r), np.eye(r)]),
        B=np.hstack([np.eye(r), np.zeros((r, r))]),
        b=cap0,
        c=np.concatenate([rng.uniform(0.3, 1.5, size=r), np.zeros(r)]),
    )

    n_outs = [int(rng.integers(2, max_outcomes + 1)) for _ in range(T)]
    outcomes = []
    for t in range(1, T + 1):
        stage = []
        for _ in range(n_outs[t - 1]):
            demand = rng.uniform(0.2, dmax, size=r)
            shortage = rng.uniform(5.0, 15.0, size=r)
            stage.append(
                _recourse_stage(rng, r, caps, demand, shortage, terminal=t == T)
            )
        outcomes.append(tuple(stage))

    def dist(k: int) -> np.ndarray:
        p = rng.uniform(0.2, 1.0, size=k)
        return p / p.sum()

    if markov:
        transitions = tuple(
            np.array([dist(n_outs[t]) for _ in range(n_outs[t - 1])])
            for t in range(1, T)
        )
        process = UncertaintyProcess(
            kind=ProcessKind.MARKOV,
            outcomes=tuple(outcomes),
            initial=dist(n_outs[0]),
            transitions=transitions,
        )
    else:
        process = UncertaintyProcess(
            kind=ProcessKind.STAGEWISE_INDEPENDENT,
            outcomes=tuple(outcomes),
            probs=tuple(dist(k) for k in n_outs),
        )
    problem = MultistageProblem(
        T=T, stage0=stage0, process=process, resource_dims=tuple([r] * T)
    )
    return problem, box_hi


def markov_toy(T: int = 3) -> MultistageProblem:
    """Small Markov chain instance with hand-picked data (2 outcomes per
    stage, 1-d resource)."""
    rng = np.random.default_rng(12345)
    problem, _ = random_recourse_instance(0, markov=True, T=T, max_dim=1)
    del rng
    return problem


def vertex_enumeration_optimum(
    A: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[float, np.ndarray] | None:
    """Brute-force optimum over all basic feasible solutions; None when no
    feasible basis exists.  Independent of the simplex implementation."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    best: tuple[float, np.ndarray] | None = None
    rhs_scale = 1.0 + np.linalg.norm(b)
    for cols in itertools.combinations(range(n), m):
        B = A[:, list(cols)]
        try:
            xb = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            continue
        if np.linalg.norm(B @ xb - b) > 1e-8 * rhs_scale:
            continue
        if xb.min(initial=0.0) < -1e-9:
            continue
        x = np.zeros(n)
        x[list(cols)] = np.maximum(xb, 0.0)
        obj = float(c @ x)
        if best is None or obj < best[0] - 0.0:
            best = (obj, x)
    return best


def random_bounded_lp(
    seed: int, m: int = 6, n: int = 10
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random feasible standard-form LP with nonnegative costs (bounded)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    x0 = rng.uniform(0.5, 2.0, size=n)
    b = A @ x0
    c = np.abs(rng.standard_normal(n))
    return A, b, c


def resource_grid(box_hi: np.ndarray, points_per_dim: int) -> np.ndarray:
    """Cartesian grid over [0, box_hi] with the given resolution per axis."""
    axes = [np.linspace(0.0, float(hi), points_per_dim) for hi in box_hi]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)

