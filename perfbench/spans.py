"""In-memory span tracer and the wrappers that put it around sddpkit's layers.

The package itself is not changed.  Each wrapper replaces a name in the
module that *calls* it (``engine.policy_subproblem``, ``qp.solve_standard_lp``,
``simplex.lu_factor`` ...), so a call is traced exactly where the package
looks the name up.  A span records its name, layer, start, end and parent;
spans stay in memory until the run writes them out.  A layer's self time is
the time of its spans minus the time their child spans cover.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "cli", "engine", "stages", "cuts", "subproblem",
    "simplex", "qp", "model", "storage",
)

# Cut rows whose surplus slack is at most this (relative to 1 + |theta|)
# count as binding.
BINDING_TOL = 1e-9


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str, layer: str, fn, /, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, layer, start, end))

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive seconds per span name and self seconds per layer."""
        child = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)
        for sid, _, name, layer, start, end in self.spans:
            by_name[name] += end - start
            self_by_layer[layer] += end - start - child[sid]
        return by_name, self_by_layer

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, layer, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, layer, start, end]) + "\n")


def span_cost_s(n: int = 20000) -> float:
    """Seconds one traced call adds over a direct call, measured on a no-op."""
    probe = Tracer()

    def noop():
        return None

    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    direct = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        probe.span("probe", "probe", noop)
    return max(0.0, (time.perf_counter() - t0 - direct) / n)


def _wrap(tracer: Tracer, owner, attr: str, name: str, layer: str, after=None):
    """Replace ``owner.attr`` by a traced call; ``after(result, args, kwargs)``
    records counts from the call's inputs and outputs outside the span."""
    inner = getattr(owner, attr)

    @functools.wraps(inner)
    def traced(*args, **kwargs):
        result = tracer.span(name, layer, inner, *args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    setattr(owner, attr, traced)
    return inner


def install(tracer: Tracer, kkt_check=None) -> list[tuple[object, str, object]]:
    """Trace every layer boundary the workloads cross.  Returns what
    ``uninstall`` needs to put the original names back.

    ``kkt_check(result, A, b, c, G)``, when given, is called on every QP
    result inside a span of its own (layer ``bench``), so its time is not
    charged to any package layer.
    """
    import sddpkit.cli as cli
    import sddpkit.cuts as cuts
    import sddpkit.engine as engine
    import sddpkit.qp as qp
    import sddpkit.simplex as simplex
    import sddpkit.storage as storage
    import sddpkit.subproblem as subproblem

    last_embed: dict[str, object] = {}

    def after_count(name):
        return lambda result, args, kwargs: tracer.count(name)

    def after_embed(spec, args, kwargs):
        stage_spec = args[3] if len(args) > 3 else kwargs["stage_spec"]
        rows = spec.n_rows - stage_spec.n_rows
        tracer.count("cuts.embed.rows", rows)
        last_embed["A"] = spec.A
        last_embed["n"] = stage_spec.n_cols
        last_embed["k"] = rows

    def after_solve(sol, args, kwargs):
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        if spec.quad is not None and spec.quad[0] > 0.0:
            tracer.count("subproblem.solve.qp_calls")
        else:
            tracer.count("subproblem.solve.lp_calls")
        if last_embed.get("A") is spec.A and sol.y is not None:
            n, k = last_embed["n"], last_embed["k"]
            theta = sol.y[n] - sol.y[n + 1]
            slack = sol.y[n + 2 : n + 2 + k]
            tracer.count(
                "cuts.binding_rows",
                int(np.count_nonzero(slack <= BINDING_TOL * (1.0 + abs(theta)))),
            )
        last_embed.clear()

    def after_lp(result, args, kwargs):
        start = args[3] if len(args) > 3 else kwargs.get("start_basis")
        kind = "cold_calls" if start is None else "warm_calls"
        tracer.count(f"simplex.solve_standard_lp.{kind}")

    def after_qp(result, args, kwargs):
        tracer.count("qp.solve_standard_qp.calls")
        if result.status == "optimal":
            tracer.count("qp.superbasics", result.n_superbasic)
        if kkt_check is not None:
            A, b, c, G = args[:4]
            tracer.span("bench.kkt_check", "bench", kkt_check, result, A, b, c, G)

    def after_save(result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        tracer.count("cuts.save.bytes", Path(path).stat().st_size)

    plan = [
        (cli, "load_instance", "model.load_instance", "model", None),
        (cli, "load_cuts", "cuts.load_cuts", "cuts", None),
        (storage, "generate_storage_instance", "storage.generate_storage_instance", "storage", None),
        (engine, "run", "engine.run", "engine", None),
        (engine, "forward_pass", "engine.forward_pass", "engine", None),
        (engine, "backward_pass", "engine.backward_pass", "engine", None),
        (engine, "lower_bound", "engine.lower_bound", "engine", None),
        (engine, "estimate_upper_bound", "engine.estimate_upper_bound", "engine", None),
        (engine, "policy_subproblem", "stages.policy_subproblem", "stages", after_count("stages.policy_subproblem.calls")),
        (engine, "verify_residuals", "subproblem.verify_residuals", "subproblem", None),
        (cuts.CutPool, "embed", "cuts.embed", "cuts", after_embed),
        (cuts.CutPool, "save", "cuts.save", "cuts", after_save),
        (subproblem.BundledSolver, "solve", "subproblem.solve", "subproblem", after_solve),
        (simplex, "solve_standard_lp", "simplex.solve_standard_lp", "simplex", after_lp),
        (qp, "solve_standard_lp", "qp.lp_start", "simplex", after_lp),
        (qp, "solve_standard_qp", "qp.solve_standard_qp", "qp", after_qp),
        (simplex, "lu_factor", "simplex.lu_factor", "simplex", after_count("simplex.lu_factor.calls")),
        (simplex, "lu_solve", "simplex.lu_solve", "simplex", after_count("simplex.lu_solve.calls")),
    ]
    return [
        (owner, attr, _wrap(tracer, owner, attr, name, layer, after))
        for owner, attr, name, layer, after in plan
    ]


def uninstall(saved) -> None:
    for owner, attr, inner in reversed(saved):
        setattr(owner, attr, inner)
