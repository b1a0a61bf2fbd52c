"""SDDP iteration loop, with optional quadratic regularization of the
forward pass.  The cut families follow the process kind: one per Markov
information state, one per stage under stagewise independence.

One iteration samples a path, runs the forward pass under the current cut
approximations (stabilized around the previous trajectory when
regularization is on), generates one aggregated cut per stage and
information state on the way back, re-solves the first stage for the
deterministic lower bound, and replaces the incumbents with the fresh
trajectory.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cuts import Cut, CutPool
from .errors import (
    ConfigError,
    EngineError,
    InfeasibleSubproblemError,
    NumericalBreakdown,
    ResidualCheckError,
)
from .model import MultistageProblem, ScenarioPath, sample_path, validate
from .stages import StageLP, policy_subproblem
from .subproblem import (
    BundledSolver,
    SolveStatus,
    SubproblemSolution,
    SubproblemSpec,
    SubproblemSolver,
    save_subproblem,
    verify_residuals,
)


CURVATURE_FLOOR = 1e-8
# Relative primal residual ||Ay - rhs|| / (1 + ||rhs||) a solution may keep.
EPS_F = 1e-8


@dataclass(frozen=True)
class RegularizationSchedule:
    """Geometric penalty sequence rho0 * decay^k."""

    rho0: float
    decay: float

    def __post_init__(self):
        if not self.rho0 > 0.0:
            raise ConfigError("rho0 must be positive")
        if not 0.0 < self.decay < 1.0:
            raise ConfigError("decay must lie in (0, 1)")

    def value(self, k: int) -> float:
        return self.rho0 * self.decay**k


@dataclass
class EngineConfig:
    """Settings of a training run.  The cut-family layout is not among them:
    it follows the process kind (``CutPool.for_problem``)."""

    iterations: int = 100
    seed: int = 0
    regularized: bool = False
    schedule: RegularizationSchedule = field(
        default_factory=lambda: RegularizationSchedule(1.0, 0.95)
    )
    q_scale: list | None = None  # per-stage PSD matrices or diagonals; None = identity
    ub_samples: int = 100
    ub_every: int = 10
    early_stop_patience: int = 0
    paths_per_iteration: int = 1
    solver: SubproblemSolver = field(default_factory=BundledSolver)
    debug_dump: str | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.ub_samples < 1:
            raise ConfigError("ub_samples must be >= 1")
        if self.paths_per_iteration < 1:
            raise ConfigError("paths_per_iteration must be >= 1")


@dataclass
class Trajectory:
    """One forward pass: decisions, post-decision resources, realized
    outcome indices, and per-stage costs/objectives."""

    path: ScenarioPath
    x: list[np.ndarray] = field(default_factory=list)
    resource: list[np.ndarray] = field(default_factory=list)
    stage_costs: list[float] = field(default_factory=list)
    stage_objectives: list[float] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        return float(sum(self.stage_costs))


@dataclass
class IterationStats:
    k: int
    lower_bound: float
    sampled_cost: float
    rho: float
    wall_ms: float


@dataclass
class SolveReport:
    iterations: list[int] = field(default_factory=list)
    lower_bounds: list[float] = field(default_factory=list)
    rhos: list[float] = field(default_factory=list)
    sampled_costs: list[float] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
    ub_evals: dict[int, tuple[float, float, int]] = field(default_factory=dict)

    def append(self, stats: IterationStats) -> None:
        self.iterations.append(stats.k)
        self.lower_bounds.append(stats.lower_bound)
        self.rhos.append(stats.rho)
        self.sampled_costs.append(stats.sampled_cost)
        self.wall_ms.append(stats.wall_ms)

    def add_ub(self, k: int, mean: float, stderr: float, n: int) -> None:
        self.ub_evals[k] = (mean, stderr, n)

    def monotone_violations(self) -> list[int]:
        out = []
        for i in range(1, len(self.lower_bounds)):
            if self.lower_bounds[i] < self.lower_bounds[i - 1] - 1e-9 * (
                1.0 + abs(self.lower_bounds[i - 1])
            ):
                out.append(self.iterations[i])
        return out

    def to_csv_text(self) -> str:
        lines = ["iter,lower_bound,rho_k,sampled_cost,ub_mean,ub_stderr,wall_ms"]
        for i, k in enumerate(self.iterations):
            ub = self.ub_evals.get(k)
            ub_mean = repr(float(ub[0])) if ub else ""
            ub_stderr = repr(float(ub[1])) if ub else ""
            lines.append(
                f"{k},{float(self.lower_bounds[i])!r},{float(self.rhos[i])!r},"
                f"{float(self.sampled_costs[i])!r},{ub_mean},{ub_stderr},"
                f"{float(self.wall_ms[i])!r}"
            )
        return "\n".join(lines) + "\n"

    def save_csv(self, path) -> None:
        Path(path).write_text(self.to_csv_text())


@dataclass
class PolicyDecision:
    x: np.ndarray
    objective: float
    stage_cost: float
    myopic_fallback: bool


class SddpState:
    """Mutable run state: cut pool, incumbents, rng, report, and the stage
    LP of each (stage, outcome)."""

    def __init__(self, problem: MultistageProblem, config: EngineConfig):
        self.problem = problem
        self.config = config
        self.pool = CutPool.for_problem(problem)
        self.q_mats = _resolve_q(problem, config.q_scale)
        self.incumbents = [
            np.zeros(problem.resource_dims[t]) for t in range(problem.T)
        ]
        self.rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
        self.ub_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
        self.report = SolveReport()
        self.lps = {(0, -1): StageLP(problem, 0, -1)}
        for t in range(1, problem.T + 1):
            for o in range(problem.process.n_outcomes(t)):
                self.lps[(t, o)] = StageLP(problem, t, o)


def _resolve_q(problem: MultistageProblem, q_scale) -> list[np.ndarray]:
    if q_scale is not None and len(q_scale) != problem.T:
        raise EngineError(
            f"Q scale has {len(q_scale)} stages, expected {problem.T}"
        )
    mats = []
    for t in range(problem.T):
        r = problem.resource_dims[t]
        if q_scale is None:
            mats.append(np.eye(r))
            continue
        q = np.asarray(q_scale[t], dtype=float)
        if q.ndim == 1:
            if q.shape[0] != r:
                raise EngineError(f"Q diagonal at stage {t} has wrong length")
            q = np.diag(q)
        if q.shape != (r, r):
            raise EngineError(f"Q at stage {t} has shape {q.shape}, expected ({r},{r})")
        sym_gap = np.abs(q - q.T).max(initial=0.0)
        scale = max(1.0, float(np.abs(q).max(initial=0.0)))
        if sym_gap > 1e-10 * scale:
            raise EngineError(f"Q at stage {t} is not symmetric")
        if q.size and np.linalg.eigvalsh(q).min() < -1e-10 * scale:
            raise EngineError(f"Q at stage {t} is not positive semidefinite")
        mats.append(q)
    return mats


def init_state(problem: MultistageProblem, config: EngineConfig) -> SddpState:
    report = validate(problem)
    if not report.ok:
        raise EngineError("invalid problem: " + "; ".join(report.violations))
    return SddpState(problem, config)


def _solve_spec(
    config: EngineConfig,
    spec: SubproblemSpec,
    key,
    t: int,
    outcome: int,
    start: np.ndarray | None = None,
    iteration: int | None = None,
) -> SubproblemSolution:
    """The engine's one call into the solver, with its hard-error policy:
    every failure names the stage and outcome (and the training iteration,
    when given) and, with ``debug_dump`` set, writes the spec and ``start``
    to ``subproblem_<key>.json`` for replay.  The key also names the role
    whose basis a stage LP keeps, so the iteration goes into the dump's
    context, not its name.  The context also names the spec's factor slot
    as the solve found it (``_slot_context``): a failure that only a
    carried inverse produces need not replay from the recorded start."""
    where = f"stage {t} outcome {outcome}"
    if iteration is not None:
        where = f"iteration {iteration} {where}"
    slot = _slot_context(spec.factor) if config.debug_dump else None
    cause = None
    try:
        sol = config.solver.solve(spec, start_basis=start)
    except NumericalBreakdown as exc:
        error, cause = NumericalBreakdown(f"{where}: {exc}"), exc
    else:
        error = _solution_error(sol, spec, where)
    if error is None:
        return sol
    if config.debug_dump:
        tag = "_".join(str(part) for part in key)
        path = Path(config.debug_dump) / f"subproblem_{tag}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        context = {"key": list(key), "error": str(error), "factor": slot}
        if iteration is not None:
            context["iteration"] = iteration
        save_subproblem(spec, path, start, context)
    raise error from cause


def _slot_context(factor) -> dict | None:
    """The dump context's record of a spec's ``CarriedFactor`` slot: its
    kind (``"live"`` or ``"fresh"``) and the update count of the inverse it
    holds (``None`` when it holds none); ``None`` without a slot."""
    if factor is None:
        return None
    updates = None if factor.inv is None else factor.updates
    return {"kind": "live" if factor.live else "fresh", "updates": updates}


def _solution_error(sol, spec, where: str) -> EngineError | None:
    """The error a returned solution calls for, or ``None`` if it passes: a
    non-optimal status, or a primal residual above ``EPS_F``.  No dual check
    is made: the bundled solvers set the reduced cost of every basic and
    superbasic column to zero and every other variable is zero, so the
    complementarity gap of their solutions is exactly zero."""
    if sol.status is SolveStatus.INFEASIBLE:
        return InfeasibleSubproblemError(
            f"{where}: infeasible subproblem (relatively complete recourse violated)"
        )
    if sol.status is SolveStatus.UNBOUNDED:
        return EngineError(f"{where}: unbounded subproblem")
    if not verify_residuals(sol, spec, EPS_F):
        return ResidualCheckError(f"{where}: primal residual exceeds eps_f={EPS_F}")
    return None


def _stage_solve(
    state: SddpState,
    t: int,
    outcome: int,
    R_prev: np.ndarray | None,
    *,
    rho: float,
    key,
    k: int,
    myopic: bool = False,
) -> tuple[SubproblemSolution, StageLP, float]:
    """Build (without cuts when ``myopic``), (optionally) regularize and
    solve the stage problem.  An LP is warm started from the basis its
    stage LP last kept for the role ``key[0]`` and keeps its own there; a
    regularized QP starts from its cut family's last LP basis.

    Returns (solution, stage LP, objective constant omitted by the solver).
    """
    problem = state.problem
    lp = state.lps[(t, outcome)]
    spec = policy_subproblem(lp, None if myopic else state.pool, R_prev)
    const = 0.0
    role = key[0]
    if rho > 0.0 and t < problem.T:
        q = state.q_mats[t]
        incumbent = state.incumbents[t]
        B_pad = np.zeros((lp.real.B.shape[0], spec.n_cols))
        B_pad[:, : lp.n_stage] = lp.real.B
        H = B_pad.T @ q @ B_pad
        # Tiny strictly-convex floor: keeps the stage QP nondegenerate (a
        # unique minimizer even where the cut model is flat) at a relative
        # objective perturbation of ~1e-8, and it vanishes with rho^k.
        H[np.diag_indices_from(H)] += CURVATURE_FLOOR
        c_adj = spec.c - rho * (B_pad.T @ (q @ incumbent))
        spec = SubproblemSpec(c=c_adj, A=spec.A, rhs=spec.rhs, quad=(rho, H))
        const = 0.5 * rho * float(incumbent @ (q @ incumbent))
        # The QP starts from the last LP of its cut family: the previous
        # backward pass (the lower bound at t = 0) solved it with the same
        # cut rows at an anchor the penalty keeps the state near, so its
        # basis is often primal feasible here and the QP skips its LP.
        role = "b" if t >= 1 else "lb"
    sol = _solve_spec(state.config, spec, key, t, outcome, lp.start(role, spec), k)
    if spec.quad is None:
        _keep_basis(lp.bases, role, sol, spec)
    return sol, lp, const


def _keep_basis(table: dict, key, sol: SubproblemSolution, spec) -> None:
    """Store the solution's basis as the next warm start under ``key``,
    unless it holds an artificial column (a redundant row)."""
    if sol.basis is not None and sol.basis.max(initial=-1) < spec.n_cols:
        table[key] = sol.basis


def forward_pass(state: SddpState, path: ScenarioPath, k: int) -> Trajectory:
    """Lines 6-21 of the iteration: myopic at k = 0; otherwise each
    non-terminal stage minimizes cost + approximation + proximal penalty."""
    problem = state.problem
    schedule = state.config.schedule
    regularized = state.config.regularized
    traj = Trajectory(path=path)
    R_prev: np.ndarray | None = None
    for t in range(problem.T + 1):
        outcome = -1 if t == 0 else path.indices[t - 1]
        rho = 0.0
        if regularized and k >= 1 and t < problem.T:
            rho = schedule.value(k)
        sol, lp, const = _stage_solve(
            state,
            t,
            outcome,
            R_prev,
            rho=rho,
            key=("f", t, outcome),
            k=k,
            myopic=k == 0,
        )
        x = sol.y[: lp.n_stage]
        traj.x.append(x)
        R = lp.real.B @ x
        traj.resource.append(R)
        traj.stage_costs.append(float(lp.real.c @ x))
        traj.stage_objectives.append(sol.objective + const)
        R_prev = R
    return traj


def backward_pass(state: SddpState, trajectory: Trajectory, k: int) -> int:
    """Lines 22-31: walk stages T..1, solve every outcome at the trajectory's
    anchor against the already-updated next-stage pool, and add one
    aggregated cut per information state."""
    problem = state.problem
    added = 0
    for t in range(problem.T, 0, -1):
        r_prev = problem.resource_dims[t - 1]
        anchor = trajectory.resource[t - 1]
        n_out = problem.process.n_outcomes(t)
        values = np.empty(n_out)
        slopes = np.empty((n_out, r_prev))
        for j in range(n_out):
            sol, _, _ = _stage_solve(
                state, t, j, anchor, rho=0.0, key=("b", t, j), k=k
            )
            values[j] = sol.objective
            slopes[j] = -sol.duals[:r_prev]

        for i in range(state.pool.n_info[t - 1]):
            probs = problem.process.conditional_probs(t, i)
            alpha = float(probs @ values)
            beta = probs @ slopes
            state.pool.add_cut(
                t - 1, i, Cut(alpha=alpha, beta=beta, anchor=anchor, born_iteration=k)
            )
            added += 1
    return added


def lower_bound(state: SddpState) -> float:
    """First-stage optimum under the current stage-0 approximation.  It
    ends the iteration under way, whose index is the count of iterations
    already reported."""
    k = len(state.report.iterations)
    sol, _, _ = _stage_solve(state, 0, -1, None, rho=0.0, key=("lb",), k=k)
    return sol.objective


def iterate(state: SddpState, k: int) -> IterationStats:
    """One full iteration: sample, forward, backward, bound, incumbents."""
    t0 = time.perf_counter()
    problem = state.problem
    total_cost = 0.0
    last_traj: Trajectory | None = None
    for _ in range(state.config.paths_per_iteration):
        path = sample_path(problem, state.rng)
        traj = forward_pass(state, path, k)
        backward_pass(state, traj, k)
        total_cost += traj.total_cost
        last_traj = traj
    lb = lower_bound(state)
    for t in range(problem.T):
        state.incumbents[t] = last_traj.resource[t]
    rho = state.config.schedule.value(k) if state.config.regularized else 0.0
    stats = IterationStats(
        k=k,
        lower_bound=lb,
        sampled_cost=total_cost / state.config.paths_per_iteration,
        rho=rho,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    state.report.append(stats)
    return stats


def run(
    problem: MultistageProblem, config: EngineConfig
) -> tuple[CutPool, SolveReport]:
    """Execute the configured number of iterations (plus upper-bound
    evaluations at the configured cadence); deterministic given the seed."""
    state = init_state(problem, config)
    stable = 0
    last_lb = None
    for k in range(config.iterations):
        stats = iterate(state, k)
        if config.ub_every > 0 and (k + 1) % config.ub_every == 0:
            # Every backward pass has added a cut to every family by now.
            mean, stderr = estimate_upper_bound(
                problem, state.pool, config.ub_samples, state.ub_rng, config=config
            )
            state.report.add_ub(k, mean, stderr, config.ub_samples)
        if config.early_stop_patience > 0:
            if last_lb is not None and abs(stats.lower_bound - last_lb) <= 1e-12 * (
                1.0 + abs(last_lb)
            ):
                stable += 1
                if stable >= config.early_stop_patience:
                    break
            else:
                stable = 0
            last_lb = stats.lower_bound
    return state.pool, state.report


def estimate_upper_bound(
    problem: MultistageProblem,
    pool: CutPool,
    n_samples: int,
    rng: np.random.Generator,
    *,
    config: EngineConfig | None = None,
) -> tuple[float, float]:
    """Monte-Carlo cost of the cut policy (pure argmin of cost + cuts, no
    regularization): sample mean and standard error.  ``config`` supplies
    the solver and the debug-dump directory.

    The paths share one table, fresh on each call (see
    ``policy_decision``).  It holds the ``StageLP`` of each (stage,
    outcome) with its held spec, which embeds only the cuts its visits
    needed (one at first, more when a solution violates others), its last
    basis and the live basis inverse that basis ended on, and the last
    basis of each LP shape.  So every LP but the first of its shape starts
    warm, and a visit that starts where its LP last ended starts from that
    inverse instead of a factorization.  Each visit's final point
    satisfies every cut of its family, so its objective is the one with
    every cut embedded, to the solver's tolerances.  A warm and a cold
    solve agree on the objective only to the simplex's optimality
    tolerance, and where optimal vertices tie the embedded rows, the start
    and the carried inverse can each pick a different decision, so the
    mean is not bit-identical to that of a simulation that builds or
    starts its LPs otherwise.

    Each node of the sampled tree is solved once: a path whose outcomes up
    to stage t equal an earlier path's (the key ``path.indices[:t]``)
    reuses that node's stage cost and post-decision resource.  On the
    10-device storage instance (24 stages, a sticky 3-regime chain, a
    15-iteration cut file) a 10-path call solves 190 LPs instead of 250,
    and a 100-path call 1289 instead of 2500 (means over 10 sample seeds).
    A skipped solve leaves the table as it was, so later LPs can start
    elsewhere than when every visit was solved, with the caveat above on
    ties."""
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    if any(
        pool.n_cuts(t, i) == 0 for t in range(problem.T) for i in range(pool.n_info[t])
    ):
        raise EngineError(
            "upper-bound estimation requires at least one cut at every "
            "stage t < T (every information state)"
        )
    # The pool is fixed while paths are simulated, so each held LP only
    # grows: the basis of its last solve warm-starts the next, and a first
    # visit starts from the last LP of the same shape.
    lps: dict = {}
    nodes: dict = {}  # path.indices[:t] -> (stage cost, post-decision resource)

    def simulate(path: ScenarioPath) -> float:
        total = 0.0
        R_prev: np.ndarray | None = None
        for t in range(problem.T + 1):
            prefix = path.indices[:t]
            node = nodes.get(prefix)
            if node is None:
                outcome = -1 if t == 0 else path.indices[t - 1]
                step = policy_decision(
                    problem, pool, t, outcome, R_prev, config=config, lps=lps
                )
                node = step.stage_cost, problem.realization(t, outcome).B @ step.x
                nodes[prefix] = node
            total += node[0]
            R_prev = node[1]
        return total

    costs = np.array([simulate(sample_path(problem, rng)) for _ in range(n_samples)])
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return mean, stderr


def policy_decision(
    problem: MultistageProblem,
    pool: CutPool,
    t: int,
    outcome: int,
    R_prev: np.ndarray | None,
    *,
    config: EngineConfig | None = None,
    lps: dict | None = None,
) -> PolicyDecision:
    """Single-stage argmin under the cuts of the outcome's family; the
    myopic problem (with a flag) when that family is empty at a
    non-terminal stage.  ``config`` supplies the solver and the debug-dump
    directory.

    Without ``lps`` the LP embeds every cut of the family, is built afresh
    and starts cold.  ``lps`` is the table of a simulation, in which
    ``pool`` stays fixed.  Under ``(t, outcome)`` it holds the ``StageLP``,
    whose held spec embeds an active subset of the family's cuts
    (``stages.policy_subproblem``); each visit folds its ``R_prev`` into
    that spec's right-hand side.  After each solve every cut of the family
    is evaluated at the solution (``StageLP.separate``); while some are
    violated, their rows are added and the LP is solved again.  So the
    final point satisfies every cut and its objective is the full LP's,
    while the decision can differ from the full LP's where optima tie.

    Each solve starts from the basis the LP last ended on, completed by the
    slacks of the rows added since, and the bundled solver starts it from
    the live basis inverse that solve left in the spec's slot.  A first
    visit starts from the last basis stored by any LP of the same shape,
    under ``("shape", n_rows, n_cols)`` (a sibling outcome, or the previous
    stage when stages share their matrix); otherwise cold.  The simplex
    repairs or rejects a start that does not fit: by dual simplex, phase 1,
    or its cold retry."""
    config = config or EngineConfig()
    table = {} if lps is None else lps
    lp = table.get((t, outcome))
    if lp is None:
        lp = table[(t, outcome)] = StageLP(problem, t, outcome)
    key = ("policy", t, outcome)
    while True:
        spec = policy_subproblem(lp, pool, R_prev, hold=lps is not None)
        shape = ("shape", spec.n_rows, spec.n_cols)
        start = lp.start("policy", spec)
        sol = _solve_spec(
            config, spec, key, t, outcome, table.get(shape) if start is None else start
        )
        _keep_basis(lp.bases, "policy", sol, spec)
        _keep_basis(table, shape, sol, spec)
        if not lp.separate(pool, sol.y):
            break
    info_index = pool.info_index(t, outcome)
    x = sol.y[: lp.n_stage]
    return PolicyDecision(
        x=x,
        objective=sol.objective,
        stage_cost=float(lp.real.c @ x),
        myopic_fallback=t < problem.T and pool.n_cuts(t, info_index) == 0,
    )
