"""Assembly of per-stage subproblems from problem data and cut pools."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .cuts import CutPool
from .model import MultistageProblem
from .subproblem import SubproblemSpec


def policy_subproblem(
    problem: MultistageProblem,
    pool: CutPool | None,
    t: int,
    outcome: int,
    R_prev: np.ndarray | None,
) -> tuple[SubproblemSpec, int]:
    """Stage LP at epoch t after ``outcome``, with the linking term folded
    into the first ``resource_dims[t-1]`` right-hand side entries and the
    cuts of the outcome's family (``pool.info_index``) embedded.

    Returns the spec and the count of the stage's own variables (the
    embedded spec appends the epigraph and slack columns after them).
    The terminal stage, ``pool=None`` and an empty family yield the bare LP.
    """
    real = problem.realization(t, outcome)
    spec = SubproblemSpec(c=real.c, A=real.A, rhs=real.b)
    n_stage = spec.n_cols
    if pool is not None and t < problem.T:
        spec = pool.embed(t, pool.info_index(t, outcome), spec, real.B)
    return relink(spec, problem, t, outcome, R_prev), n_stage


def relink(
    spec: SubproblemSpec,
    problem: MultistageProblem,
    t: int,
    outcome: int,
    R_prev: np.ndarray | None,
) -> SubproblemSpec:
    """``spec``, a stage LP of :func:`policy_subproblem` at (t, outcome),
    with the linking term of ``R_prev`` folded into its right-hand side in
    place of the one it holds.  The matrix, the cost and the carried factor
    stay the same objects."""
    if t == 0:
        return spec
    r_prev = problem.resource_dims[t - 1]
    rhs = spec.rhs.copy()
    rhs[:r_prev] = problem.realization(t, outcome).b[:r_prev] - np.asarray(
        R_prev, dtype=float
    )
    return replace(spec, rhs=rhs)
