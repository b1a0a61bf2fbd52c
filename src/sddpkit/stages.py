"""The stage LP of each (stage, outcome) and its assembly from problem data
and cut pools."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .cuts import CutPool
from .model import MultistageProblem
from .simplex import CarriedFactor
from .subproblem import SubproblemSpec


class StageLP:
    """The LP of one (stage, outcome), which training and simulation solve
    again and again: its realization, the last basis each role (``"f"``,
    ``"b"``, ``"lb"``) ended on, and, when :func:`policy_subproblem` is told
    to hold it, the cut-embedded spec with the slot of its carried factor.
    Hold a spec only while the pool is fixed."""

    def __init__(self, problem: MultistageProblem, t: int, outcome: int):
        self.t, self.outcome = t, outcome
        self.real = problem.realization(t, outcome)
        self.n_stage = self.real.n_cols
        # The right-hand side entries the previous stage's resource enters.
        self.r_prev = problem.resource_dims[t - 1] if t else 0
        self.bases: dict[str, np.ndarray] = {}
        self.held: SubproblemSpec | None = None

    def start(self, role: str, spec: SubproblemSpec) -> np.ndarray | None:
        """The basis ``role`` last kept, completed for ``spec``: cut rows
        only grow, and the surplus slacks of the newer rows complete it.
        The simplex rejects a start of any other row count."""
        start = self.bases.get(role)
        if start is not None and start.shape[0] < spec.n_rows:
            extra = spec.n_rows - start.shape[0]
            start = np.concatenate([start, np.arange(spec.n_cols - extra, spec.n_cols)])
        return start


def policy_subproblem(
    lp: StageLP, pool: CutPool | None, R_prev: np.ndarray | None, *, hold: bool = False
) -> SubproblemSpec:
    """Stage LP of ``lp`` with the cuts of its outcome's family
    (``pool.info_index``) embedded after its ``lp.n_stage`` own columns
    (none at the terminal stage, with ``pool=None`` or an empty family),
    and the linking term of ``R_prev`` folded into its first ``lp.r_prev``
    right-hand side entries.  With ``hold`` the first call keeps the
    embedded spec in ``lp`` with a ``CarriedFactor`` slot; later calls only
    relink it, so the matrix, the cost and the slot stay the same objects."""
    spec = lp.held
    if spec is None:
        spec = SubproblemSpec(c=lp.real.c, A=lp.real.A, rhs=lp.real.b)
        if pool is not None and lp.t < pool.n_stages:
            spec = pool.embed(lp.t, pool.info_index(lp.t, lp.outcome), spec, lp.real.B)
        if hold:
            spec = lp.held = replace(spec, factor=CarriedFactor())
    if lp.t == 0:
        return spec
    rhs = spec.rhs.copy()
    rhs[: lp.r_prev] = lp.real.b[: lp.r_prev] - np.asarray(R_prev, dtype=float)
    return replace(spec, rhs=rhs)
