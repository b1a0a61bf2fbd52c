"""The stage LP of each (stage, outcome) and its assembly from problem data
and cut pools."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .cuts import CutPool
from .model import MultistageProblem
from .simplex import CarriedFactor
from .subproblem import SubproblemSpec

# A cut whose value at the stage point exceeds theta by more than this,
# relative to 1 + |theta|, is added to a held LP (``StageLP.separate``).
SEPARATION_TOL = 1e-9


class StageLP:
    """The LP of one (stage, outcome), which training and simulation solve
    again and again: its realization and the last basis each role (``"f"``,
    ``"b"``, ``"lb"``, and ``"policy"`` in a simulation) ended on.

    When :func:`policy_subproblem` is told to hold it, it also keeps the
    spec it last built, with a live ``CarriedFactor`` slot.  At stages
    t >= 1 that spec embeds an active subset of the family's cuts,
    ``active`` (family indices, in the order they were added): their rows
    and slack columns, taken bit for bit from the spec with every cut
    embedded.  The subset starts with one cut and only grows
    (``separate``).  Hold a spec only while the pool is fixed."""

    def __init__(self, problem: MultistageProblem, t: int, outcome: int):
        self.t, self.outcome = t, outcome
        self.real = problem.realization(t, outcome)
        self.n_stage = self.real.n_cols
        # The right-hand side entries the previous stage's resource enters.
        self.r_prev = problem.resource_dims[t - 1] if t else 0
        self.bases: dict[str, np.ndarray] = {}
        self.held: SubproblemSpec | None = None
        self.active: np.ndarray | None = None

    def start(self, role: str, spec: SubproblemSpec) -> np.ndarray | None:
        """The basis ``role`` last kept, completed for ``spec``: cut rows
        only grow, and the surplus slacks of the newer rows complete it.
        The simplex rejects a start of any other row count."""
        start = self.bases.get(role)
        if start is not None and start.shape[0] < spec.n_rows:
            extra = spec.n_rows - start.shape[0]
            start = np.concatenate([start, np.arange(spec.n_cols - extra, spec.n_cols)])
        return start

    def embedded(self, pool: CutPool | None) -> SubproblemSpec:
        """The unlinked spec with every cut of the outcome's family
        (``pool.info_index``) embedded after the stage's own columns; none
        at the terminal stage, with ``pool=None`` or an empty family."""
        spec = SubproblemSpec(c=self.real.c, A=self.real.A, rhs=self.real.b)
        if pool is not None and self.t < pool.n_stages:
            info = pool.info_index(self.t, self.outcome)
            spec = pool.embed(self.t, info, spec, self.real.B)
        return spec

    def _active_part(self, full: SubproblemSpec) -> SubproblemSpec:
        """The rows and columns of ``full``, the ``embedded`` spec, that the
        active cuts keep: the stage's own rows, columns and theta+/theta-,
        then one row and one surplus slack per active cut.  ``full`` is
        built again when the subset grows rather than held: holding it
        raised the simulation's peak memory."""
        m, n = self.real.n_rows, self.n_stage
        rows = np.concatenate([np.arange(m), m + self.active])
        cols = np.concatenate([np.arange(n + 2), n + 2 + self.active])
        return SubproblemSpec(c=full.c[cols], A=full.A[rows][:, cols], rhs=full.rhs[rows])

    def separate(self, pool: CutPool, y: np.ndarray) -> bool:
        """Add to the held spec every cut of the family that the solution
        ``y`` of that spec violates: whose value at ``R = B x`` (``x`` the
        stage's own variables) exceeds theta by more than
        ``SEPARATION_TOL * (1 + |theta|)``.  The new rows go after the
        held ones, each with its surplus slack as the last column, and the
        spec keeps its factor slot.  Returns whether any row was added."""
        if self.active is None:
            return False
        n = self.n_stage
        theta = y[n] - y[n + 1]
        info = pool.info_index(self.t, self.outcome)
        values = pool.values(self.t, info, self.real.B @ y[:n])
        new = values > theta + SEPARATION_TOL * (1.0 + abs(theta))
        new[self.active] = False
        if not new.any():
            return False
        self.active = np.concatenate([self.active, np.flatnonzero(new)])
        old = self.held
        self.held = replace(self._active_part(self.embedded(pool)), factor=old.factor)
        old.factor.grow(old.A, self.held.A)
        return True


def policy_subproblem(
    lp: StageLP, pool: CutPool | None, R_prev: np.ndarray | None, *, hold: bool = False
) -> SubproblemSpec:
    """Stage LP of ``lp`` with the cuts of its outcome's family embedded
    (``StageLP.embedded``), and the linking term of ``R_prev`` folded into
    its first ``lp.r_prev`` right-hand side entries.

    With ``hold``, the first call keeps in ``lp`` a spec with a live
    ``CarriedFactor`` slot.  At stages t >= 1 it embeds one cut of the
    family: the one highest at ``R_prev``, or the newest when the resource
    dimensions of stages t-1 and t differ.  The stage-0 spec, solved once
    per simulation, embeds them all: a subset could only add rounds.
    Later calls relink the held spec, which ``StageLP.separate`` may have
    grown, so between two separations the matrix, the cost and the slot
    stay the same objects."""
    spec = lp.held
    if spec is None:
        spec = lp.embedded(pool)
        if hold:
            if lp.t and spec.n_rows > lp.real.n_rows:
                info = pool.info_index(lp.t, lp.outcome)
                if lp.r_prev == pool.resource_dims[lp.t]:
                    lp.active = np.array([int(np.argmax(pool.values(lp.t, info, R_prev)))])
                else:
                    lp.active = np.array([pool.n_cuts(lp.t, info) - 1])
                spec = lp._active_part(spec)
            spec = lp.held = replace(spec, factor=CarriedFactor(live=True))
    if lp.t == 0:
        return spec
    rhs = spec.rhs.copy()
    rhs[: lp.r_prev] = lp.real.b[: lp.r_prev] - np.asarray(R_prev, dtype=float)
    return replace(spec, rhs=rhs)
