"""Exact verification instruments for enumerable instances.

Everything here enumerates the full outcome tree, so it is meant for
desk-scale test problems only: the deterministic-equivalent LP, exact
post-decision value functions, and exact expected cost of a cut policy.
The deterministic-equivalent LPs are solved by HiGHS (through scipy), not
by the package's own simplex, so that they check it rather than share it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cuts import CutPool
from .engine import policy_decision
from .errors import InfeasibleSubproblemError, NumericalBreakdown, TooManyPaths
from .model import MultistageProblem

DEFAULT_NODE_LIMIT = 100_000


@dataclass(frozen=True)
class TreeNode:
    """One history prefix: the stage, realized outcome, parent link and the
    probability of reaching the node."""

    t: int
    outcome: int  # -1 for the deterministic root
    parent: int  # -1 for the root
    probability: float
    row0: int
    col0: int


@dataclass
class ExtensiveForm:
    """Deterministic-equivalent LP over the full scenario tree."""

    nodes: list[TreeNode]
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def node_slice(self, idx: int) -> tuple[slice, slice]:
        node = self.nodes[idx]
        nxt_row = (
            self.nodes[idx + 1].row0 if idx + 1 < len(self.nodes) else self.A.shape[0]
        )
        nxt_col = (
            self.nodes[idx + 1].col0 if idx + 1 < len(self.nodes) else self.A.shape[1]
        )
        return slice(node.row0, nxt_row), slice(node.col0, nxt_col)


def build_extensive_form(
    problem: MultistageProblem,
    start_t: int = 0,
    start_outcome: int = -1,
    R_in: np.ndarray | None = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> ExtensiveForm:
    """Assemble the scenario-tree LP for the subtree rooted at
    ``(start_t, start_outcome)`` with incoming resource ``R_in``.

    With the defaults this is the full deterministic equivalent.
    Zero-probability branches are pruned.
    """
    nodes: list[TreeNode] = []
    rows = cols = 0
    # Breadth-first so children always follow their parents.
    frontier: list[int] = []
    real0 = problem.realization(start_t, start_outcome)
    nodes.append(
        TreeNode(
            t=start_t,
            outcome=start_outcome,
            parent=-1,
            probability=1.0,
            row0=0,
            col0=0,
        )
    )
    rows += real0.n_rows
    cols += real0.n_cols
    frontier.append(0)
    for t in range(start_t + 1, problem.T + 1):
        new_frontier = []
        for parent_idx in frontier:
            parent = nodes[parent_idx]
            probs = problem.process.conditional_probs(t, parent.outcome)
            for j in range(problem.process.n_outcomes(t)):
                if float(probs[j]) == 0.0:
                    continue
                real = problem.realization(t, j)
                nodes.append(
                    TreeNode(
                        t=t,
                        outcome=j,
                        parent=parent_idx,
                        probability=parent.probability * float(probs[j]),
                        row0=rows,
                        col0=cols,
                    )
                )
                rows += real.n_rows
                cols += real.n_cols
                new_frontier.append(len(nodes) - 1)
                if len(nodes) > node_limit:
                    raise TooManyPaths(
                        f"extensive form exceeds the {node_limit}-node limit"
                    )
        frontier = new_frontier

    A = np.zeros((rows, cols))
    b = np.zeros(rows)
    c = np.zeros(cols)
    for idx, node in enumerate(nodes):
        real = problem.realization(node.t, node.outcome)
        m_t, n_t = real.A.shape
        A[node.row0 : node.row0 + m_t, node.col0 : node.col0 + n_t] = real.A
        b[node.row0 : node.row0 + m_t] = real.b
        c[node.col0 : node.col0 + n_t] = node.probability * real.c
        if idx == 0:
            if node.t > 0 and R_in is not None:
                r_prev = problem.resource_dims[node.t - 1]
                b[node.row0 : node.row0 + r_prev] -= np.asarray(R_in, dtype=float)
        else:
            parent = nodes[node.parent]
            parent_real = problem.realization(parent.t, parent.outcome)
            r_prev = problem.resource_dims[node.t - 1]
            # Linking rows: B x_parent lands in the first r_prev rows.
            A[
                node.row0 : node.row0 + r_prev,
                parent.col0 : parent.col0 + parent_real.n_cols,
            ] = parent_real.B
    return ExtensiveForm(nodes=nodes, A=A, b=b, c=c)


@dataclass(frozen=True)
class ExtensiveSolution:
    objective: float
    x: np.ndarray


def solve_extensive_form(form: ExtensiveForm) -> ExtensiveSolution:
    """Optimum of the form by HiGHS on a sparse copy of ``A``.  scipy is
    imported here: at the top of the module it would add about 20 MB to
    every CLI process."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    res = linprog(
        form.c, A_eq=csr_matrix(form.A), b_eq=form.b, bounds=(0, None), method="highs"
    )
    if res.status == 2:
        raise InfeasibleSubproblemError(
            "extensive form is infeasible (relatively complete recourse violated)"
        )
    if res.status == 3:
        raise InfeasibleSubproblemError("extensive form is unbounded")
    if res.status != 0:
        raise NumericalBreakdown(f"extensive form not solved: {res.message}")
    return ExtensiveSolution(objective=float(res.fun), x=res.x)


def build_and_solve_extensive_form(
    problem: MultistageProblem, node_limit: int = DEFAULT_NODE_LIMIT
) -> float:
    """Exact optimum of the sampled model."""
    form = build_extensive_form(problem, node_limit=node_limit)
    return solve_extensive_form(form).objective


def extensive_form_root_decision(
    problem: MultistageProblem, node_limit: int = DEFAULT_NODE_LIMIT
) -> np.ndarray:
    """Optimal stage-0 decision of the deterministic equivalent."""
    form = build_extensive_form(problem, node_limit=node_limit)
    res = solve_extensive_form(form)
    _, cols = form.node_slice(0)
    return res.x[cols]


def exact_value_function(
    problem: MultistageProblem,
    t: int,
    info_index: int,
    R: np.ndarray,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> float:
    """Exact post-decision value V*_t(R, info): the expected optimal cost of
    stages t+1..T given resource R and the stage-t information state."""
    if t >= problem.T:
        return 0.0
    R = np.asarray(R, dtype=float)
    total = 0.0
    probs = problem.process.conditional_probs(t + 1, info_index)
    for j in range(problem.process.n_outcomes(t + 1)):
        if float(probs[j]) == 0.0:
            continue
        form = build_extensive_form(
            problem, start_t=t + 1, start_outcome=j, R_in=R, node_limit=node_limit
        )
        total += float(probs[j]) * solve_extensive_form(form).objective
    return total


def evaluate_policy_exact(
    problem: MultistageProblem,
    pool: CutPool | None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> float:
    """Exact expected cost of the policy induced by a cut pool (myopic where
    the pool is empty); always an upper bound on the exact optimum.  Each
    step is ``engine.policy_decision``, solved cold."""
    if pool is None:
        pool = CutPool.for_problem(problem)
    visited = 0

    def walk(t: int, outcome: int, R_prev: np.ndarray | None) -> float:
        nonlocal visited
        visited += 1
        if visited > node_limit:
            raise TooManyPaths(f"policy walk exceeds the {node_limit}-node limit")
        step = policy_decision(problem, pool, t, outcome, R_prev)
        cost = step.stage_cost
        if t == problem.T:
            return cost
        R = problem.realization(t, outcome).B @ step.x
        probs = problem.process.conditional_probs(t + 1, outcome)
        expected = 0.0
        for j in range(problem.process.n_outcomes(t + 1)):
            if float(probs[j]) == 0.0:
                continue
            expected += float(probs[j]) * walk(t + 1, j, R)
        return cost + expected

    return walk(0, -1, None)
