import numpy as np
import pytest

from sddpkit.cli import cli_main
from sddpkit.cuts import Cut, CutPool, load_cuts
from sddpkit.errors import TooManyPaths
from sddpkit.model import (
    MultistageProblem,
    ProcessKind,
    StageRealization,
    UncertaintyProcess,
    load_instance,
)
from sddpkit.oracle import (
    build_and_solve_extensive_form,
    build_extensive_form,
    evaluate_policy_exact,
    exact_value_function,
    extensive_form_root_decision,
    solve_extensive_form,
)
from sddpkit.simplex import solve_standard_lp
from support import newsvendor, random_recourse_instance


def converged_newsvendor_pool():
    pool = CutPool(resource_dims=(1,), n_info=(1,))
    for alpha, beta in ((15.0, -10.0), (10.0, -5.0), (0.0, 0.0)):
        pool.add_cut(0, 0, Cut(alpha, np.array([beta]), np.zeros(1), 0))
    return pool


def test_newsvendor_value():
    assert build_and_solve_extensive_form(newsvendor()) == pytest.approx(2.0)


def test_deterministic_chain_equals_single_path_lp():
    p, _ = random_recourse_instance(17, T=3)
    outcomes = tuple((stage[0],) for stage in p.process.outcomes)
    process = UncertaintyProcess(
        kind=ProcessKind.STAGEWISE_INDEPENDENT,
        outcomes=outcomes,
        probs=tuple(np.array([1.0]) for _ in range(p.T)),
    )
    q = MultistageProblem(
        T=p.T, stage0=p.stage0, process=process, resource_dims=p.resource_dims
    )
    # hand-assemble the single-path LP block structure
    blocks_A = [q.stage0.A] + [stage[0].A for stage in outcomes]
    blocks_B = [q.stage0.B] + [stage[0].B for stage in outcomes]
    blocks_b = [q.stage0.b] + [stage[0].b for stage in outcomes]
    blocks_c = [q.stage0.c] + [stage[0].c for stage in outcomes]
    rows = sum(a.shape[0] for a in blocks_A)
    cols = sum(a.shape[1] for a in blocks_A)
    A = np.zeros((rows, cols))
    b = np.zeros(rows)
    c = np.zeros(cols)
    r0 = c0 = 0
    prev_c0 = prev_B = None
    for At, Bt, bt, ct in zip(blocks_A, blocks_B, blocks_b, blocks_c):
        m, n = At.shape
        A[r0 : r0 + m, c0 : c0 + n] = At
        b[r0 : r0 + m] = bt
        c[c0 : c0 + n] = ct
        if prev_B is not None:
            A[r0 : r0 + prev_B.shape[0], prev_c0 : prev_c0 + prev_B.shape[1]] = prev_B
        prev_c0, prev_B = c0, Bt
        r0 += m
        c0 += n
    direct = solve_standard_lp(A, b, c)
    assert direct.status == "optimal"
    assert build_and_solve_extensive_form(q) == pytest.approx(
        direct.objective, abs=1e-8
    )


def test_decoupled_markov_chain_averages_path_problems():
    # P = identity: the tree is two disjoint path problems sharing x0.
    p, _ = random_recourse_instance(23, markov=True, T=2, max_dim=1)
    proc = p.process
    k1 = proc.n_outcomes(1)
    eye = np.eye(k1)
    if proc.n_outcomes(2) != k1:
        outcomes = (proc.outcomes[0], proc.outcomes[1][:k1])
    else:
        outcomes = proc.outcomes
    process = UncertaintyProcess(
        kind=ProcessKind.MARKOV,
        outcomes=outcomes,
        initial=np.full(k1, 1.0 / k1),
        transitions=(eye,),
    )
    q = MultistageProblem(
        T=2, stage0=p.stage0, process=process, resource_dims=p.resource_dims
    )
    form = build_extensive_form(q)
    # identity chain: 1 root + k1 + k1 nodes after pruning
    assert len(form.nodes) == 1 + 2 * k1
    value = solve_extensive_form(form).objective
    assert np.isfinite(value)


def test_exact_value_function_newsvendor_points():
    p = newsvendor()
    assert exact_value_function(p, 0, 0, np.array([2.0])) == pytest.approx(0.0)
    assert exact_value_function(p, 0, 0, np.array([0.0])) == pytest.approx(15.0)
    assert exact_value_function(p, 1, 0, np.array([])) == 0.0


def test_exact_value_function_terminal_is_zero():
    p, box = random_recourse_instance(31, T=2)
    assert exact_value_function(p, p.T, 0, box) == 0.0


def test_evaluate_policy_exact_converged_pool():
    assert evaluate_policy_exact(newsvendor(), converged_newsvendor_pool()) == (
        pytest.approx(2.0)
    )


def test_evaluate_policy_exact_myopic():
    # empty pool: order nothing, pay expected shortfall 15
    empty = CutPool(resource_dims=(1,), n_info=(1,))
    assert evaluate_policy_exact(newsvendor(), empty) == pytest.approx(15.0)


def test_any_policy_dominates_optimum():
    p, _ = random_recourse_instance(41, T=3)
    v_star = build_and_solve_extensive_form(p)
    pool = CutPool.for_problem(p)
    rng = np.random.default_rng(2)
    for t in range(p.T):
        r = p.resource_dims[t]
        pool.add_cut(
            t,
            0,
            Cut(
                alpha=float(rng.uniform(-1, 0)),
                beta=rng.uniform(-0.5, 0.0, size=r),
                anchor=np.zeros(r),
                born_iteration=0,
            ),
        )
    cost = evaluate_policy_exact(p, pool)
    assert cost >= v_star - 1e-8


def test_oracle_self_consistency():
    # V* equals the stage-0 minimum of c0.x0 + V0*(B0 x0).
    p = newsvendor()
    v_star = build_and_solve_extensive_form(p)
    x0_opt = extensive_form_root_decision(p)
    values = []
    for x0 in list(np.linspace(0.0, 3.0, 7)) + [float(x0_opt[0])]:
        cost = 1.0 * x0 + exact_value_function(p, 0, 0, np.array([x0]))
        values.append(cost)
    assert min(values) == pytest.approx(v_star, abs=1e-8)


def test_node_limit_guard():
    p, _ = random_recourse_instance(5, T=4, max_outcomes=3)
    with pytest.raises(TooManyPaths):
        build_extensive_form(p, node_limit=3)
    with pytest.raises(TooManyPaths):
        evaluate_policy_exact(p, CutPool.for_problem(p), node_limit=3)


def test_extensive_form_optimum_is_at_most_a_policy_cost(tmp_path):
    # The optimum of the deterministic equivalent bounds the exact cost of
    # every policy from below.  On this instance the package's own simplex
    # stopped at 5972.175924 on the extensive form, above the exact cost
    # 5972.167904 of a 10-iteration cut policy.
    inst, cuts = str(tmp_path / "inst.json"), str(tmp_path / "cuts.json")
    small = ["--n-storage", "2", "--t-periods", "4", "--n-regimes", "2", "--seed", "1"]
    assert cli_main(["generate", "--out", inst, *small]) == 0
    argv = ["solve", inst, "--plain", "--iters", "10", "--seed", "0", "--out-cuts", cuts]
    assert cli_main(argv) == 0
    problem = load_instance(inst)
    v_star = build_and_solve_extensive_form(problem)
    cost = evaluate_policy_exact(problem, load_cuts(cuts))
    assert v_star <= cost + 1e-9 * abs(cost)
