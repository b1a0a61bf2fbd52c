"""Assembly of per-stage subproblems from problem data and cut pools."""
from __future__ import annotations

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
    rhs = real.b.copy()
    if t > 0:
        r_prev = problem.resource_dims[t - 1]
        rhs[:r_prev] -= np.asarray(R_prev, dtype=float)
    spec = SubproblemSpec(c=real.c, A=real.A, rhs=rhs)
    if pool is None or t >= problem.T:
        return spec, spec.n_cols
    return pool.embed(t, pool.info_index(t, outcome), spec, real.B), spec.n_cols
