from dataclasses import replace

import numpy as np
import pytest

from sddpkit import engine, simplex, stages
from sddpkit.cuts import Cut, CutPool
from sddpkit.engine import (
    EngineConfig,
    RegularizationSchedule,
    backward_pass,
    estimate_upper_bound,
    forward_pass,
    init_state,
    iterate,
    policy_decision,
    run,
)
from sddpkit.errors import EngineError, NumericalBreakdown
from sddpkit.model import (
    MultistageProblem,
    ProcessKind,
    ScenarioPath,
    StageRealization,
    UncertaintyProcess,
    enumerate_paths,
    sample_path,
)
from sddpkit.oracle import build_and_solve_extensive_form
from sddpkit.stages import StageLP, policy_subproblem
from sddpkit.storage import StorageNetworkParams, generate_storage_instance
from sddpkit.subproblem import BundledSolver, SolveStatus, load_subproblem
from support import newsvendor, random_recourse_instance


def state_with_cut(problem, cuts, config=None):
    state = init_state(problem, config or EngineConfig(iterations=1, ub_every=0))
    for t, info, cut in cuts:
        state.pool.add_cut(t, info, cut)
    return state


def newsvendor_cut(alpha=15.0, beta=-10.0, anchor=0.0):
    return Cut(alpha, np.array([beta]), np.array([anchor]), 0)


def test_forward_pass_iteration_zero_is_myopic():
    p = newsvendor()
    state = init_state(p, EngineConfig(iterations=1, ub_every=0))
    traj = forward_pass(state, ScenarioPath((0,), 0.5), 0)
    assert traj.x[0][0] == pytest.approx(0.0)
    assert traj.resource[0][0] == pytest.approx(0.0)


def test_forward_pass_uses_cuts_at_k1():
    p = newsvendor()
    state = state_with_cut(p, [(0, 0, newsvendor_cut())])
    traj = forward_pass(state, ScenarioPath((0,), 0.5), 1)
    assert traj.x[0][0] == pytest.approx(3.0)
    assert traj.stage_costs[0] == pytest.approx(3.0)
    assert traj.stage_costs[1] == pytest.approx(0.0)  # demand 1 covered by 3


def test_forward_pass_regularized_boundary_minimum():
    p = newsvendor()
    config = EngineConfig(
        iterations=2,
        regularized=True,
        schedule=RegularizationSchedule(1.0, 0.95),
        ub_every=0,
    )
    state = state_with_cut(p, [(0, 0, newsvendor_cut())], config)
    # rho^1 = 0.95; incumbent 0; minimum of x + 15 - 10x + 0.475 x^2 on [0,3]
    traj = forward_pass(state, ScenarioPath((0,), 0.5), 1)
    assert traj.x[0][0] == pytest.approx(3.0, abs=1e-6)
    # stage objective includes the proximal term (up to the strictly-convex
    # floor the engine adds, worth ~rho * 1e-8 * |y|^2 here)
    rho = 0.95
    expected = 3.0 + (15.0 - 30.0) + 0.5 * rho * 9.0
    assert traj.stage_objectives[0] == pytest.approx(expected, abs=1e-5)


def test_backward_pass_newsvendor_cut_values():
    p = newsvendor()
    state = init_state(p, EngineConfig(iterations=1, ub_every=0))
    traj = forward_pass(state, ScenarioPath((0,), 0.5), 0)
    added = backward_pass(state, traj, 0)
    assert added == 1
    cut = state.pool.cuts_at(0, 0)[0]
    assert cut.alpha == pytest.approx(15.0)
    assert cut.beta[0] == pytest.approx(-10.0)
    assert cut.anchor[0] == pytest.approx(0.0)


def test_backward_pass_zero_linkage_gives_constant_cut():
    # stage 1 rhs row has zero cost attached: dual 0, so beta = 0.
    stage0 = StageRealization(
        A=[[1.0, 1.0]], B=[[1.0, 0.0]], b=[3.0], c=[1.0, 0.0]
    )
    stage1 = StageRealization(
        A=[[1.0, -1.0]], B=np.zeros((0, 2)), b=[3.0], c=[0.0, 0.0]
    )
    process = UncertaintyProcess(
        kind=ProcessKind.STAGEWISE_INDEPENDENT,
        outcomes=((stage1,),),
        probs=(np.array([1.0]),),
    )
    p = MultistageProblem(T=1, stage0=stage0, process=process, resource_dims=(1,))
    state = init_state(p, EngineConfig(iterations=1, ub_every=0))
    traj = forward_pass(state, ScenarioPath((0,), 1.0), 0)
    backward_pass(state, traj, 0)
    cut = state.pool.cuts_at(0, 0)[0]
    assert cut.beta[0] == 0.0
    assert cut.alpha == pytest.approx(0.0)


def test_backward_pass_markov_adds_cut_per_info_state():
    p, _ = random_recourse_instance(2, markov=True, T=2)
    state = init_state(p, EngineConfig(iterations=1, ub_every=0))
    traj = forward_pass(state, ScenarioPath((0, 0), 1.0), 0)
    added = backward_pass(state, traj, 0)
    # stage 1 gets one cut per stage-1 info state, stage 0 exactly one
    n1 = p.process.n_outcomes(1)
    assert added == n1 + 1
    for i in range(n1):
        assert state.pool.n_cuts(1, i) == 1
    assert state.pool.n_cuts(0, 0) == 1


def test_backward_pass_decoupled_chain_cuts_use_own_successor():
    # identity transitions: each info state aggregates only its own column
    stage0 = StageRealization(A=[[1.0, 1.0]], B=[[1.0, 0.0]], b=[3.0], c=[1.0, 0.0])
    mid = tuple(
        StageRealization(A=[[1.0, -1.0]], B=[[1.0, 0.0]], b=[d], c=[10.0, 0.0])
        for d in (1.0, 2.0)
    )
    last = tuple(
        StageRealization(A=[[1.0, -1.0]], B=np.zeros((0, 2)), b=[d], c=[10.0, 0.0])
        for d in (1.0, 2.0)
    )
    process = UncertaintyProcess(
        kind=ProcessKind.MARKOV,
        outcomes=(mid, last),
        initial=np.array([0.5, 0.5]),
        transitions=(np.eye(2),),
    )
    p = MultistageProblem(T=2, stage0=stage0, process=process, resource_dims=(1, 1))
    state = init_state(p, EngineConfig(iterations=1, ub_every=0))
    traj = forward_pass(state, ScenarioPath((0, 0), 0.5), 0)
    backward_pass(state, traj, 0)
    c0 = state.pool.cuts_at(1, 0)[0]
    c1 = state.pool.cuts_at(1, 1)[0]
    # anchor R1 = 1 (myopic shortage of 1): own-successor values are
    # 10*max(d - 1, 0), i.e. 0 and 10; any cross-aggregation would give 5.
    assert c0.anchor[0] == pytest.approx(1.0)
    assert c0.alpha == pytest.approx(0.0)
    assert c1.alpha == pytest.approx(10.0)


def test_iterate_newsvendor_bound_sequence():
    p = newsvendor()
    state = init_state(p, EngineConfig(iterations=10, seed=0, ub_every=0))
    stats0 = iterate(state, 0)
    assert stats0.lower_bound == pytest.approx(-12.0)
    bounds = [stats0.lower_bound]
    for k in range(1, 6):
        bounds.append(iterate(state, k).lower_bound)
    assert bounds[-1] == pytest.approx(2.0, abs=1e-9)
    assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(bounds, bounds[1:]))


def test_trajectory_resource_consistency():
    p, _ = random_recourse_instance(3, T=3)
    state = init_state(p, EngineConfig(iterations=3, seed=1, ub_every=0))
    iterate(state, 0)
    path = ScenarioPath(
        tuple(0 for _ in range(p.T)), 1.0
    )
    traj = forward_pass(state, path, 1)
    for t in range(p.T + 1):
        real = p.realization(t, -1 if t == 0 else path.indices[t - 1])
        assert np.abs(real.B @ traj.x[t] - traj.resource[t]).max(initial=0.0) <= 1e-10


def assert_replays(path, key, error, iteration=None):
    """The dump at ``path`` names the solve key, the error and (for a
    training solve) the iteration, and the bundled solver solves it from the
    recorded start basis."""
    spec, start, context = load_subproblem(path)
    expected = {"key": key, "error": error}
    if iteration is not None:
        expected["iteration"] = iteration
    assert context == expected
    assert BundledSolver().solve(spec, start).status is SolveStatus.OPTIMAL


class BreaksOnSolve(BundledSolver):
    """Raises a breakdown on the ``call``-th solve (counting from 1)."""

    def __init__(self, call):
        self.call = call
        self.calls = 0

    def solve(self, spec, start_basis=None):
        self.calls += 1
        if self.calls == self.call:
            raise NumericalBreakdown("basis factorization failed")
        return super().solve(spec, start_basis)


def test_numerical_breakdown_names_stage_and_outcome_and_dumps(tmp_path):
    config = EngineConfig(
        iterations=1,
        ub_every=0,
        solver=BreaksOnSolve(2),
        debug_dump=str(tmp_path),
    )
    state = init_state(newsvendor(), config)
    # the second solve of the forward pass is stage 1 under outcome 1
    with pytest.raises(NumericalBreakdown) as info:
        forward_pass(state, ScenarioPath((1,), 0.5), 0)
    message = "iteration 0 stage 1 outcome 1: basis factorization failed"
    assert str(info.value) == message
    assert isinstance(info.value.__cause__, NumericalBreakdown)
    assert_replays(
        tmp_path / "subproblem_f_1_1.json", ["f", 1, 1], str(info.value), 0
    )


@pytest.mark.parametrize(
    "call, key, where",
    [
        (8, ["b", 1, 0], "iteration 1 stage 1 outcome 0"),
        (10, ["lb"], "iteration 1 stage 0 outcome -1"),
    ],
    ids=["backward", "lower-bound"],
)
def test_training_breakdown_names_iteration_and_dumps(tmp_path, call, key, where):
    # each iteration solves five subproblems: two forward, two backward
    # (outcomes 0 and 1) and one lower bound
    config = EngineConfig(
        iterations=3,
        ub_every=0,
        solver=BreaksOnSolve(call),
        debug_dump=str(tmp_path),
    )
    with pytest.raises(NumericalBreakdown) as info:
        run(newsvendor(), config)
    assert str(info.value) == f"{where}: basis factorization failed"
    tag = "_".join(str(part) for part in key)
    assert_replays(tmp_path / f"subproblem_{tag}.json", key, str(info.value), 1)


def test_breakdown_in_upper_bound_names_stage_and_outcome():
    p = newsvendor()
    pool, _ = run(p, EngineConfig(iterations=5, seed=0, ub_every=0))
    outcome = sample_path(p, np.random.default_rng(0)).indices[0]
    config = EngineConfig(solver=BreaksOnSolve(2))
    # the second solve simulates stage 1 of the first sampled path
    with pytest.raises(NumericalBreakdown) as info:
        estimate_upper_bound(p, pool, 4, np.random.default_rng(0), config=config)
    assert str(info.value) == f"stage 1 outcome {outcome}: basis factorization failed"
    assert isinstance(info.value.__cause__, NumericalBreakdown)


def test_breakdown_in_policy_decision_names_stage_and_outcome():
    p = newsvendor()
    pool, _ = run(p, EngineConfig(iterations=5, seed=0, ub_every=0))
    with pytest.raises(NumericalBreakdown) as info:
        policy_decision(
            p, pool, 1, 1, np.array([0.0]), config=EngineConfig(solver=BreaksOnSolve(1))
        )
    assert str(info.value) == "stage 1 outcome 1: basis factorization failed"
    assert isinstance(info.value.__cause__, NumericalBreakdown)


def test_breakdown_in_run_upper_bound_dumps(tmp_path):
    # iteration 0 solves five subproblems (two forward, two backward, one
    # lower bound); the sixth is stage 0 of the first simulated path
    config = EngineConfig(
        iterations=1,
        ub_every=1,
        ub_samples=2,
        solver=BreaksOnSolve(6),
        debug_dump=str(tmp_path),
    )
    with pytest.raises(NumericalBreakdown) as info:
        run(newsvendor(), config)
    assert str(info.value) == "stage 0 outcome -1: basis factorization failed"
    assert_replays(
        tmp_path / "subproblem_policy_0_-1.json", ["policy", 0, -1], str(info.value)
    )


class RecordsCalls(BundledSolver):
    """Records the spec, the start basis and the solution of every solve."""

    def __init__(self):
        self.calls = []

    def solve(self, spec, start_basis=None):
        sol = super().solve(spec, start_basis)
        self.calls.append((spec, start_basis, sol))
        return sol


def tree_nodes(p, n_paths, seed) -> list[tuple[int, ...]]:
    """The nodes of the tree that ``estimate_upper_bound`` samples with
    ``n_paths`` and ``default_rng(seed)``, as outcome prefixes in the order
    the paths first reach them."""
    rng = np.random.default_rng(seed)
    nodes: dict = {}
    for _ in range(n_paths):
        path = sample_path(p, rng)
        for t in range(p.T + 1):
            nodes.setdefault(path.indices[:t])
    return list(nodes)


class NodeRecords(list):
    """One record per node of a simulated tree, for the node's final solve:
    ``(t, info, R_prev, outcome, objective, spec, start, solution)``.
    ``rounds[i]`` lists every ``(spec, start, solution)`` of node i, the
    final one last."""

    rounds: list


def simulate_recorded(monkeypatch, p, pool, n_paths, seed):
    """Run the policy simulation and return a ``NodeRecords`` of it.  The
    simulation solves each node of its sampled tree, in the order the paths
    reach them, until its solution satisfies every cut of its family: the
    final solve of each node is recorded, and the earlier ones, which added
    cut rows, are in ``rounds``."""
    steps = []
    inner = engine.policy_decision
    solver = RecordsCalls()

    def recording(problem, pool, t, outcome, R_prev, **kwargs):
        first = len(solver.calls)
        step = inner(problem, pool, t, outcome, R_prev, **kwargs)
        info = pool.info_index(t, outcome)
        steps.append(((t, info, R_prev, outcome, step.objective), solver.calls[first:]))
        return step

    monkeypatch.setattr(engine, "policy_decision", recording)
    rng = np.random.default_rng(seed)
    estimate_upper_bound(p, pool, n_paths, rng, config=EngineConfig(solver=solver))
    monkeypatch.undo()
    nodes = tree_nodes(p, n_paths, seed)
    assert len(steps) == len(nodes)
    assert sum(len(rounds) for _, rounds in steps) == len(solver.calls)
    assert [(t, outcome) for (t, _, _, outcome, _), _ in steps] == [
        (len(node), node[-1] if node else -1) for node in nodes
    ]
    records = NodeRecords(step + rounds[-1] for step, rounds in steps)
    records.rounds = [rounds for _, rounds in steps]
    return records


def test_paths_through_a_node_share_its_solve(monkeypatch):
    # A sticky regime chain: the 12 paths share their first stages.  Each
    # path must add the stage costs of the solves made at its nodes, and
    # each solve must start from the resource its parent node's solve left.
    p = storage_instance()
    pool, _ = run(p, EngineConfig(iterations=6, seed=0, ub_every=0))
    steps = []
    inner = engine.policy_decision

    def recording(problem, pool, t, outcome, R_prev, **kwargs):
        step = inner(problem, pool, t, outcome, R_prev, **kwargs)
        steps.append((R_prev, step))
        return step

    monkeypatch.setattr(engine, "policy_decision", recording)
    mean, _ = estimate_upper_bound(p, pool, 12, np.random.default_rng(5))
    nodes = tree_nodes(p, 12, 5)
    assert len(steps) == len(nodes) < 12 * (p.T + 1)
    solved = dict(zip(nodes, steps))
    rng = np.random.default_rng(5)
    totals = []
    for _ in range(12):
        path = sample_path(p, rng)
        total = 0.0
        for t in range(p.T + 1):
            R_prev, step = solved[path.indices[:t]]
            if t == 0:
                assert R_prev is None
            else:
                _, parent = solved[path.indices[: t - 1]]
                outcome = path.indices[t - 2] if t > 1 else -1
                assert np.array_equal(R_prev, p.realization(t - 1, outcome).B @ parent.x)
            total += step.stage_cost
        totals.append(total)
    assert len(set(totals)) > 1
    assert mean == float(np.array(totals).mean())


def check_start_rule(records) -> tuple[int, int]:
    """Assert each solve starts from the last basis its own (stage, outcome)
    LP kept, completed by the slacks of the cut rows added since; or else
    from the last basis of an LP of the same shape; or else cold.  Returns
    how many first visits of an LP started from a sibling at the same stage
    and from an earlier stage."""
    own, by_shape, stages_of_shape = {}, {}, {}
    sibling = earlier = 0
    for (t, _, _, outcome, *_), rounds in zip(records, records.rounds):
        for spec, start, sol in rounds:
            shape = spec.A.shape
            want = own.get((t, outcome))
            if want is not None:
                extra = spec.n_rows - want.shape[0]
                slacks = np.arange(spec.n_cols - extra, spec.n_cols)
                want = np.concatenate([want, slacks])
            else:
                want = by_shape.get(shape)
                if want is not None:
                    if t in stages_of_shape[shape]:
                        sibling += 1
                    else:
                        earlier += 1
            if want is None:
                assert start is None
            else:
                assert np.array_equal(start, want)
            if sol.basis.max(initial=-1) < spec.n_cols:
                own[(t, outcome)] = by_shape[shape] = sol.basis
                stages_of_shape.setdefault(shape, set()).add(t)
    return sibling, earlier


def test_policy_simulation_warm_starts_after_first_path(monkeypatch):
    # Only the first LP of each shape starts cold: the first visit of a
    # (stage, outcome) starts from the last LP of its shape, and every later
    # solve of it from its own last basis.
    p, _ = random_recourse_instance(21, T=3)
    pool, _ = run(p, EngineConfig(iterations=8, seed=0, ub_every=0))
    records = simulate_recorded(monkeypatch, p, pool, 6, 0)
    seen = set()
    for rounds in records.rounds:
        for i, (spec, start, _) in enumerate(rounds):
            assert (start is None) == (i == 0 and spec.A.shape not in seen)
            seen.add(spec.A.shape)
    # some first-path solves start warm
    assert any(rounds[0][1] is not None for rounds in records.rounds[: p.T + 1])
    check_start_rule(records)


def assert_matches_cold(p, pool, records):
    for t, _, R_prev, outcome, objective, *_ in records:
        cold = policy_decision(p, pool, t, outcome, R_prev).objective
        assert objective == pytest.approx(cold, rel=1e-9, abs=1e-9)


def test_warm_policy_simulation_matches_cold_decisions(monkeypatch):
    p, _ = random_recourse_instance(22, T=3)
    pool, _ = run(p, EngineConfig(iterations=8, seed=0, ub_every=0))
    records = simulate_recorded(monkeypatch, p, pool, 5, 1)
    # all but the first LP of each shape start warm, so the comparison
    # checks warm solves against cold ones
    solves = [solve for rounds in records.rounds for solve in rounds]
    cold = sum(start is None for _, start, _ in solves)
    assert cold <= len({spec.A.shape for spec, _, _ in solves}) < len(solves)
    check_start_rule(records)
    assert_matches_cold(p, pool, records)


def storage_instance():
    params = StorageNetworkParams(n_storage=3, T=8, n_regimes=2, n_nodes=2, n_lines=2)
    return generate_storage_instance(params, np.random.default_rng(3))


def test_warm_policy_simulation_across_families_matches_cold(monkeypatch):
    # Markov regimes: two information states per stage, and stages 1..T-1
    # share their matrix, so first visits start from a sibling family or
    # from the previous stage of the path.
    p = storage_instance()
    pool, _ = run(p, EngineConfig(iterations=6, seed=0, ub_every=0))
    assert all(pool.n_info[t] == 2 for t in range(1, p.T))
    records = simulate_recorded(monkeypatch, p, pool, 4, 2)
    sibling, earlier = check_start_rule(records)
    assert sibling >= 1 and earlier >= 1
    assert sum(start is None for *_, start, _ in records) <= 3
    assert_matches_cold(p, pool, records)


@pytest.mark.parametrize("instance", ["storage", "recourse"])
def test_simulated_points_satisfy_every_cut_of_their_family(monkeypatch, instance):
    # Each node's final point satisfies every cut of its family, not only
    # the rows its LP embeds, so its objective is the full LP's.
    if instance == "storage":
        p, n_paths = storage_instance(), 6
    else:
        p, _ = random_recourse_instance(23, T=4)
        n_paths = 8
    pool, _ = run(p, EngineConfig(iterations=6, seed=0, ub_every=0))
    records = simulate_recorded(monkeypatch, p, pool, n_paths, 3)
    for t, info, _, outcome, _, spec, _, sol in records:
        if t == p.T:
            continue
        real = p.realization(t, outcome)
        n = real.n_cols
        assert spec.n_rows - real.n_rows <= pool.n_cuts(t, info)
        theta = sol.y[n] - sol.y[n + 1]
        values = pool.values(t, info, real.B @ sol.y[:n])
        assert values.max() <= theta + stages.SEPARATION_TOL * (1.0 + abs(theta))
    assert_matches_cold(p, pool, records)
    # some node added rows to its seed cut
    assert any(len(rounds) > 1 for rounds in records.rounds)


def test_separation_adds_the_binding_cut_its_seed_misses():
    # Stage 1 moves the resource from R_prev = 0 to R = R_prev + 8.  Of the
    # two stage-1 cuts, 10 - R is highest at R_prev and seeds the LP, but
    # 3R - 20 binds at R = 8: the first solve violates it, and the second
    # solve, with its row added, reaches the full LP's objective 4.
    stage0 = StageRealization(A=[[1.0, 1.0]], B=[[1.0, 0.0]], b=[3.0], c=[1.0, 0.0])
    stage1 = StageRealization(A=[[-1.0]], B=[[1.0]], b=[-8.0], c=[0.0])
    stage2 = StageRealization(A=[[1.0, -1.0]], B=np.zeros((0, 2)), b=[1.0], c=[1.0, 0.0])
    process = UncertaintyProcess(
        kind=ProcessKind.STAGEWISE_INDEPENDENT,
        outcomes=((stage1,), (stage2,)),
        probs=(np.array([1.0]), np.array([1.0])),
    )
    p = MultistageProblem(T=2, stage0=stage0, process=process, resource_dims=(1, 1))
    pool = CutPool.for_problem(p)
    pool.add_cut(1, 0, Cut(10.0, np.array([-1.0]), np.array([0.0]), 0))
    pool.add_cut(1, 0, Cut(4.0, np.array([3.0]), np.array([8.0]), 1))
    solver = RecordsCalls()
    lps = {}
    step = policy_decision(
        p, pool, 1, 0, np.array([0.0]), config=EngineConfig(solver=solver), lps=lps
    )
    assert [spec.n_rows for spec, _, _ in solver.calls] == [2, 3]
    assert list(lps[(1, 0)].active) == [0, 1]
    cold = policy_decision(p, pool, 1, 0, np.array([0.0]))
    assert step.objective == pytest.approx(4.0) == cold.objective


def test_live_carried_factors_match_fresh_solves(monkeypatch):
    # Each (stage, outcome) LP of a simulation carries the live inverse its
    # last solve ended on, bordered by the slacks of the cut rows added
    # since.  Every solve, repeated from the same start with fresh
    # factorizations only, must reach the same objective, and the carried
    # run must factorize less than the fresh one.
    p = storage_instance()
    pool, _ = run(p, EngineConfig(iterations=6, seed=0, ub_every=0))
    factorizations = []
    inner = simplex.lu_factor

    def counted(a):
        factorizations.append(a.shape[0])
        return inner(a)

    monkeypatch.setattr(simplex, "lu_factor", counted)
    records = simulate_recorded(monkeypatch, p, pool, 12, 4)  # undoes the patch
    carried_run = len(factorizations)
    monkeypatch.setattr(simplex, "lu_factor", counted)
    last = {}
    carried = solves = 0
    for (t, _, _, outcome, *_), rounds in zip(records, records.rounds):
        for spec, start, sol in rounds:
            solves += 1
            assert spec.factor is not None and spec.factor.live
            own = last.get((t, outcome))
            carried += own is not None and np.array_equal(start[: own.shape[0]], own)
            last[(t, outcome)] = sol.basis
            fresh = BundledSolver().solve(replace(spec, factor=None), start)
            assert fresh.objective == pytest.approx(sol.objective, rel=1e-9, abs=1e-9)
            scale = 1.0 + np.abs(spec.rhs).max()
            assert np.abs(spec.A @ sol.y - spec.rhs).max() <= 1e-9 * scale
    assert carried >= solves // 2
    # the fresh solves factorized every start the simulation carried
    assert len(factorizations) - carried_run >= carried_run + carried


def test_training_lps_start_from_their_roles_kept_basis(monkeypatch):
    # A plain run: every forward, backward and lower-bound LP starts from
    # the last basis its (stage, outcome) kept for its role, extended by
    # the slacks of the cut rows added since, and cold when none is kept.
    p = storage_instance()
    records = []
    inner = engine._solve_spec

    def recording(config, spec, key, t, outcome, start=None, iteration=None):
        sol = inner(config, spec, key, t, outcome, start, iteration)
        records.append((key, spec, start, sol))
        return sol

    monkeypatch.setattr(engine, "_solve_spec", recording)
    state = init_state(p, EngineConfig(iterations=6, seed=0, ub_every=0))
    for k in range(6):
        iterate(state, k)
    kept = {}
    checked = extended = 0
    for key, spec, start, sol in records:
        stored = kept.get(key)
        if stored is None:
            assert start is None
        else:
            extra = spec.n_rows - stored.shape[0]
            slacks = np.arange(spec.n_cols - extra, spec.n_cols)
            assert np.array_equal(start, np.concatenate([stored, slacks]))
            checked += 1
            extended += extra > 0
        if sol.basis.max(initial=-1) < spec.n_cols:
            kept[key] = sol.basis
    assert {key[0] for key in kept} == {"f", "b", "lb"}
    assert checked >= len(records) // 2 and extended >= 10
    for key, basis in kept.items():
        lp = state.lps[key[1:] or (0, -1)]
        assert lp.bases[key[0]] is basis and lp.held is None


def test_held_stage_lp_relinks_the_same_matrix():
    # A held spec visited at a new R_prev keeps its matrix, cost and factor
    # slot, and equals the rows and columns of its active cuts in a fresh
    # build at that R_prev, with every cut embedded, bit for bit.
    p = storage_instance()
    pool, _ = run(p, EngineConfig(iterations=6, seed=0, ub_every=0))
    rng = np.random.default_rng(0)
    lp = StageLP(p, 3, 1)
    first = policy_subproblem(lp, pool, rng.random(lp.r_prev), hold=True)
    R_prev = rng.random(lp.r_prev)
    again = policy_subproblem(lp, pool, R_prev, hold=True)
    fresh = policy_subproblem(StageLP(p, 3, 1), pool, R_prev)
    assert again.A is first.A and again.c is first.c
    assert again.factor is first.factor and first.factor is not None
    assert fresh.factor is None and fresh.A is not first.A
    m, n = lp.real.n_rows, lp.n_stage
    assert len(lp.active) == 1 and again.n_rows == m + 1  # one cut is embedded
    rows = np.concatenate([np.arange(m), m + lp.active])
    cols = np.concatenate([np.arange(n + 2), n + 2 + lp.active])
    taken = {"c": fresh.c[cols], "A": fresh.A[np.ix_(rows, cols)], "rhs": fresh.rhs[rows]}
    for name in ("c", "A", "rhs"):
        assert getattr(again, name).tobytes() == taken[name].tobytes()
    assert again.rhs.tobytes() != first.rhs.tobytes()


def test_policy_simulation_builds_each_stage_lp_once(monkeypatch):
    # A simulation keeps one StageLP per (stage, outcome) it visits; a
    # visit that finds its StageLP in the table builds none.
    p = storage_instance()
    pool, _ = run(p, EngineConfig(iterations=3, seed=0, ub_every=0))
    built = []

    class Counted(StageLP):
        def __init__(self, problem, t, outcome):
            built.append((t, outcome))
            super().__init__(problem, t, outcome)

    monkeypatch.setattr(engine, "StageLP", Counted)
    estimate_upper_bound(p, pool, 12, np.random.default_rng(5))
    assert built and len(built) == len(set(built))


def test_regularized_qp_starts_from_its_cut_familys_lp_basis(monkeypatch):
    # Two paths per iteration: the second forward pass meets stage-0 cuts
    # that the lower-bound LP of the previous iteration did not have, so
    # its start is extended by the new cut rows' slacks.
    p = storage_instance()
    solver = RecordsCalls()
    config = EngineConfig(
        iterations=4,
        regularized=True,
        paths_per_iteration=2,
        ub_every=0,
        solver=solver,
    )
    passes = []
    inner = engine.forward_pass

    def recording(state, path, k):
        bases = {key: dict(lp.bases) for key, lp in state.lps.items()}
        passes.append((k, path, bases, len(solver.calls)))
        return inner(state, path, k)

    monkeypatch.setattr(engine, "forward_pass", recording)
    run(p, config)
    checked = extended = 0
    for k, path, bases, first in passes[2:]:  # the passes at k >= 1
        qps = [
            call for call in solver.calls[first : first + p.T + 1]
            if call[0].quad is not None
        ]
        assert len(qps) == p.T
        for t, (spec, start, _) in enumerate(qps):
            stored = bases[(t, path.indices[t - 1])]["b"] if t else bases[(0, -1)]["lb"]
            extra = spec.n_rows - stored.shape[0]
            slacks = np.arange(spec.n_cols - extra, spec.n_cols)
            assert np.array_equal(start, np.concatenate([stored, slacks]))
            checked += 1
            extended += extra > 0
    assert checked == 6 * p.T
    assert extended >= 3


class ColdQps(BundledSolver):
    """Starts every QP cold, and every LP as the engine asks."""

    def solve(self, spec, start_basis=None):
        if spec.quad is not None:
            start_basis = None
        return super().solve(spec, start_basis)


def test_warm_regularized_run_matches_cold_qp_run():
    # The QP stops within its optimality tolerance, so a warm and a cold
    # start can leave the forward state (the cut anchor) apart by about
    # 1e-7, and the intercept with it.  The cuts agree as affine functions:
    # the same slope, and the same value at the cold run's anchor.
    p = storage_instance()
    config = dict(iterations=8, seed=1, regularized=True, ub_every=0)
    warm_pool, warm = run(p, EngineConfig(**config))
    cold_pool, cold = run(p, EngineConfig(**config, solver=ColdQps()))
    np.testing.assert_allclose(warm.lower_bounds, cold.lower_bounds, rtol=1e-9)
    for t in range(p.T):
        for i in range(warm_pool.n_info[t]):
            ours, theirs = warm_pool.cuts_at(t, i), cold_pool.cuts_at(t, i)
            assert len(ours) == len(theirs) > 0
            for a, b in zip(ours, theirs):
                np.testing.assert_allclose(a.beta, b.beta, rtol=1e-9, atol=1e-9)
                value = a.alpha + a.beta @ (b.anchor - a.anchor)
                assert value == pytest.approx(b.alpha, rel=1e-9)


def test_run_newsvendor_converges():
    pool, report = run(newsvendor(), EngineConfig(iterations=20, seed=3, ub_every=0))
    assert report.lower_bounds[-1] == pytest.approx(2.0, abs=1e-6)
    assert report.monotone_violations() == []


def test_run_markov_toy_converges_to_extensive_form():
    p, _ = random_recourse_instance(8, markov=True, T=3)
    v_star = build_and_solve_extensive_form(p)
    pool, report = run(
        p, EngineConfig(iterations=200, seed=0, ub_every=0, early_stop_patience=40)
    )
    assert report.lower_bounds[-1] == pytest.approx(v_star, rel=1e-6, abs=1e-6)


def test_run_reports_geometric_rho_exactly():
    p = newsvendor()
    config = EngineConfig(
        iterations=25,
        seed=1,
        regularized=True,
        schedule=RegularizationSchedule(1.0, 0.95),
        ub_every=0,
    )
    _, report = run(p, config)
    for k, rho in zip(report.iterations, report.rhos):
        assert rho == 1.0 * 0.95**k


def test_plain_run_reports_zero_rho():
    _, report = run(newsvendor(), EngineConfig(iterations=5, seed=0, ub_every=0))
    assert all(r == 0.0 for r in report.rhos)


def test_lower_bound_never_exceeds_optimum():
    for seed in (0, 1):
        for markov in (False, True):
            p, _ = random_recourse_instance(seed + 60, markov=markov, T=3)
            v_star = build_and_solve_extensive_form(p)
            _, report = run(p, EngineConfig(iterations=60, seed=seed, ub_every=0))
            tol = 1e-6 * max(1.0, abs(v_star))
            assert all(lb <= v_star + tol for lb in report.lower_bounds)


def test_estimate_upper_bound_deterministic_instance():
    p, _ = random_recourse_instance(13, T=2)
    proc = p.process
    singleton = UncertaintyProcess(
        kind=ProcessKind.STAGEWISE_INDEPENDENT,
        outcomes=tuple((stage[0],) for stage in proc.outcomes),
        probs=tuple(np.array([1.0]) for _ in range(p.T)),
    )
    q = MultistageProblem(
        T=p.T, stage0=p.stage0, process=singleton, resource_dims=p.resource_dims
    )
    pool, _ = run(q, EngineConfig(iterations=10, seed=0, ub_every=0))
    mean, stderr = estimate_upper_bound(q, pool, 16, np.random.default_rng(0))
    assert stderr == 0.0
    exact_cost = build_and_solve_extensive_form(q)
    assert mean == pytest.approx(exact_cost, abs=1e-6)


def test_estimate_upper_bound_newsvendor_converged():
    p = newsvendor()
    pool, report = run(p, EngineConfig(iterations=20, seed=0, ub_every=0))
    mean, stderr = estimate_upper_bound(p, pool, 10_000, np.random.default_rng(5))
    assert abs(mean - 2.0) <= max(3.0 * stderr, 1e-9)


def test_estimate_upper_bound_requires_cuts_everywhere():
    p, _ = random_recourse_instance(4, T=3)
    empty = CutPool.for_problem(p)
    with pytest.raises(EngineError):
        estimate_upper_bound(p, empty, 10, np.random.default_rng(0))


def test_policy_decision_converged_newsvendor():
    p = newsvendor()
    pool, _ = run(p, EngineConfig(iterations=20, seed=0, ub_every=0))
    decision = policy_decision(p, pool, 0, -1, None)
    assert decision.x[0] == pytest.approx(2.0, abs=1e-8)
    assert not decision.myopic_fallback


def test_policy_decision_terminal_stage_is_myopic():
    p = newsvendor()
    pool, _ = run(p, EngineConfig(iterations=5, seed=0, ub_every=0))
    decision = policy_decision(p, pool, 1, 0, np.array([0.0]))
    assert decision.x[0] == pytest.approx(1.0)  # cover demand exactly
    assert not decision.myopic_fallback


def test_policy_decision_empty_pool_flags_fallback():
    p = newsvendor()
    decision = policy_decision(p, CutPool.for_problem(p), 0, -1, None)
    assert decision.myopic_fallback
    assert decision.x[0] == pytest.approx(0.0)


def test_policy_decision_takes_the_family_of_its_outcome():
    # Markov regimes: theta of a policy solve is the cut model of the
    # outcome's own family at the decision's resource, and the other
    # family's cut model differs there.
    p = storage_instance()
    pool, _ = run(p, EngineConfig(iterations=6, seed=0, ub_every=0))
    R = p.stage0.B @ policy_decision(p, pool, 0, -1, None).x
    for t in range(1, p.T):
        for j in (0, 1):
            step = policy_decision(p, pool, t, j, R)
            R_next = p.realization(t, j).B @ step.x
            theta = step.objective - step.stage_cost
            assert theta == pytest.approx(pool.evaluate(t, j, R_next), rel=1e-12)
            assert pool.evaluate(t, 1 - j, R_next) != pytest.approx(theta, rel=1e-12)
        R = R_next


def test_vanishing_regularization_matches_plain_objectives():
    p, _ = random_recourse_instance(19, T=3)
    pool, _ = run(p, EngineConfig(iterations=15, seed=2, ub_every=0))
    path = enumerate_paths(p, 1000)[0]

    tiny = EngineConfig(
        iterations=10,
        seed=2,
        regularized=True,
        schedule=RegularizationSchedule(1e-13, 0.5),
        ub_every=0,
    )
    plain = EngineConfig(iterations=10, seed=2, ub_every=0)
    state_a = init_state(p, tiny)
    state_b = init_state(p, plain)
    state_a.pool = pool
    state_b.pool = pool
    assert tiny.schedule.value(3) < 1e-12
    traj_a = forward_pass(state_a, path, 3)
    traj_b = forward_pass(state_b, path, 3)
    for oa, ob in zip(traj_a.stage_objectives, traj_b.stage_objectives):
        assert abs(oa - ob) <= 1e-8 * (1.0 + abs(ob))


def test_markov_with_identical_rows_matches_stagewise():
    p, _ = random_recourse_instance(29, markov=False, T=3)
    proc = p.process
    transitions = tuple(
        np.tile(proc.probs[t], (proc.n_outcomes(t), 1)) for t in range(1, p.T)
    )
    as_markov = UncertaintyProcess(
        kind=ProcessKind.MARKOV,
        outcomes=proc.outcomes,
        initial=proc.probs[0],
        transitions=transitions,
    )
    q = MultistageProblem(
        T=p.T, stage0=p.stage0, process=as_markov, resource_dims=p.resource_dims
    )
    _, rep_sw = run(p, EngineConfig(iterations=30, seed=7, ub_every=0))
    _, rep_mk = run(q, EngineConfig(iterations=30, seed=7, ub_every=0))
    for a, b in zip(rep_sw.lower_bounds, rep_mk.lower_bounds):
        assert abs(a - b) <= 1e-8 * (1.0 + abs(a))


def test_report_csv_layout(tmp_path):
    p = newsvendor()
    _, report = run(p, EngineConfig(iterations=12, seed=0, ub_every=10, ub_samples=8))
    path = tmp_path / "bounds.csv"
    report.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,lower_bound,rho_k,sampled_cost,ub_mean,ub_stderr,wall_ms"
    assert len(lines) == 13
    # UB fields filled only at the cadence
    row_with_ub = lines[10].split(",")
    row_without = lines[1].split(",")
    assert row_with_ub[4] != "" and row_without[4] == ""


def test_early_stop_patience():
    p = newsvendor()
    _, report = run(
        p, EngineConfig(iterations=200, seed=0, ub_every=0, early_stop_patience=10)
    )
    assert len(report.iterations) < 200
    assert report.lower_bounds[-1] == pytest.approx(2.0, abs=1e-9)


def test_multi_path_iterations():
    p, _ = random_recourse_instance(43, T=2)
    _, report = run(
        p, EngineConfig(iterations=15, seed=0, ub_every=0, paths_per_iteration=3)
    )
    v_star = build_and_solve_extensive_form(p)
    assert report.lower_bounds[-1] <= v_star + 1e-6 * max(1.0, abs(v_star))
    assert report.monotone_violations() == []
