"""Output checks computed apart from the program.

The instance, cut file and bounds table are parsed here with ``json`` and
``csv``, and every stage problem is re-solved with HiGHS
(``scipy.optimize.linprog``), never with sddpkit's own simplex.  Each check
returns a list of failure messages; an empty list means it passed.
"""
from __future__ import annotations

import csv
import json

import numpy as np
from scipy.optimize import linprog

REL_TOL = 1e-6
RANDOM_POINTS = 2  # random points of the storage box at which each cut is probed


def _matrix(obj) -> np.ndarray:
    return np.array(obj["data"], dtype=float).reshape(obj["rows"], obj["cols"])


def _stage(obj) -> dict:
    return {
        "A": _matrix(obj["A"]),
        "B": _matrix(obj["B"]),
        "b": np.array(obj["b"], dtype=float),
        "c": np.array(obj["c"], dtype=float),
    }


class Instance:
    """Stage data and outcome process of an ``mslp-instance`` file."""

    def __init__(self, path):
        obj = json.loads(open(path).read())
        self.T = int(obj["T"])
        self.resource_dims = [int(r) for r in obj["resource_dims"]]
        self.stage0 = _stage(obj["stage0"])
        proc = obj["process"]
        self.markov = proc["kind"] == "markov"
        self.outcomes = [[_stage(o) for o in stage] for stage in proc["outcomes"]]
        if self.markov:
            self.initial = np.array(proc["initial"], dtype=float)
            self.transitions = [_matrix(P) for P in proc["transitions"]]
        else:
            self.probs = [np.array(p, dtype=float) for p in proc["probs"]]

    def stage(self, t: int, outcome: int) -> dict:
        return self.stage0 if t == 0 else self.outcomes[t - 1][outcome]

    def n_outcomes(self, t: int) -> int:
        return len(self.outcomes[t - 1])

    def n_info(self, t: int) -> int:
        """Cut families kept at stage t: one per outcome of stage t in a
        Markov chain (t >= 1), one otherwise."""
        return self.n_outcomes(t) if self.markov and t >= 1 else 1

    def info(self, t: int, outcome: int) -> int:
        return outcome if self.markov and t >= 1 else 0

    def probs_given(self, t: int, info: int) -> np.ndarray:
        """Distribution of the stage-t outcome given stage t-1's family."""
        if not self.markov:
            return self.probs[t - 1]
        return self.initial if t == 1 else self.transitions[t - 2][info]


def load_cuts(path) -> dict:
    """Cuts of an ``mslp-cuts`` file, grouped by (stage, family)."""
    obj = json.loads(open(path).read())
    groups: dict[tuple[int, int], list[dict]] = {}
    for rec in obj["cuts"]:
        groups.setdefault((int(rec["t"]), int(rec["info"])), []).append(
            {
                "alpha": float(rec["alpha"]),
                "beta": np.array(rec["beta"], dtype=float),
                "anchor": np.array(rec["anchor"], dtype=float),
                "born": int(rec["born_iteration"]),
            }
        )
    return groups


def load_bounds(path) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row["lower_bound"]) for row in csv.DictReader(fh)]


def stage_value(inst: Instance, cuts: dict, t: int, outcome: int, R_prev) -> float:
    """Optimal value of stage t under ``outcome`` at incoming resource
    ``R_prev``, plus the max of the stage's cuts on its outgoing resource."""
    st = inst.stage(t, outcome)
    A, B, b, c = st["A"], st["B"], st["b"].copy(), st["c"]
    if t > 0:
        b[: len(R_prev)] -= R_prev
    group = cuts.get((t, inst.info(t, outcome)), []) if t < inst.T else []
    n = A.shape[1]
    if group:
        betas = np.array([g["beta"] for g in group])
        offsets = np.array([g["alpha"] - g["beta"] @ g["anchor"] for g in group])
        # theta >= offset_i + beta_i . (B x)  <=>  (beta_i B) x - theta <= -offset_i
        A_ub = np.hstack([betas @ B, -np.ones((len(group), 1))])
        res = linprog(
            np.append(c, 1.0),
            A_ub=A_ub,
            b_ub=-offsets,
            A_eq=np.hstack([A, np.zeros((A.shape[0], 1))]),
            b_eq=b,
            bounds=[(0, None)] * n + [(None, None)],
            method="highs",
        )
    else:
        res = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: stage {t} outcome {outcome}: {res.message}")
    return float(res.fun)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_bounds(bounds: list[float], iterations: int) -> list[str]:
    """One row per iteration, and the lower bound never decreases."""
    out = []
    if len(bounds) != iterations:
        out.append(f"bounds table has {len(bounds)} rows, expected {iterations}")
    for k in range(1, len(bounds)):
        if bounds[k] < bounds[k - 1] - 1e-9 * (1.0 + abs(bounds[k - 1])):
            out.append(f"lower bound decreases at iteration {k}: {bounds[k - 1]!r} -> {bounds[k]!r}")
    return out


def check_cut_count(inst: Instance, cuts: dict, iterations: int) -> list[str]:
    want = iterations * sum(inst.n_info(t) for t in range(inst.T))
    have = sum(len(g) for g in cuts.values())
    if have != want:
        return [f"cut file holds {have} cuts, expected {iterations} x families = {want}"]
    return []


def check_lower_bound(inst: Instance, cuts: dict, final_lb: float) -> list[str]:
    """The final lower bound is the stage-0 problem with the stage-0 cuts."""
    v = stage_value(inst, cuts, 0, 0, None)
    if not _close(final_lb, v):
        return [f"final lower bound {final_lb!r} differs from HiGHS stage-0 value {v!r}"]
    return []


def check_last_cuts(inst: Instance, cuts: dict, capacity: float, rng: np.random.Generator) -> list[str]:
    """Each cut of the last iteration is tight at its anchor against the
    probability-weighted next-stage values under the final cuts, and lies at
    or below them at the box corners [0, capacity] and RANDOM_POINTS random
    points of the box."""
    out = []
    last = max(g["born"] for group in cuts.values() for g in group)
    values: dict[tuple, float] = {}

    def expected(t: int, info: int, R: np.ndarray) -> float:
        # Expected value of stage t + 1 at the resource R that stage t leaves,
        # given stage t's family ``info``.
        p = inst.probs_given(t + 1, info)
        total = 0.0
        for j in range(inst.n_outcomes(t + 1)):
            key = (t + 1, j, R.tobytes())
            if key not in values:
                values[key] = stage_value(inst, cuts, t + 1, j, R)
            total += p[j] * values[key]
        return float(total)

    for (t, info), group in sorted(cuts.items()):
        r = inst.resource_dims[t]
        points = [np.zeros(r), np.full(r, capacity)]
        points += [rng.uniform(0.0, capacity, r) for _ in range(RANDOM_POINTS)]
        for g in group:
            if g["born"] != last:
                continue
            v = expected(t, info, g["anchor"])
            if not _close(g["alpha"], v):
                out.append(
                    f"stage {t} family {info}: cut intercept {g['alpha']!r} differs "
                    f"from the expected next-stage value {v!r} at its anchor"
                )
            for R in points:
                cut_at = float(g["alpha"] + g["beta"] @ (R - g["anchor"]))
                v = expected(t, info, R)
                if cut_at > v + REL_TOL * max(1.0, abs(v)):
                    out.append(
                        f"stage {t} family {info}: cut value {cut_at!r} exceeds the "
                        f"expected next-stage value {v!r} at {R.tolist()}"
                    )
    return out


def check_solve(
    inst: Instance, cuts_path, bounds_path, iterations: int, capacity: float, rng
) -> list[str]:
    """All checks on the outputs of one ``solve`` call."""
    cuts = load_cuts(cuts_path)
    bounds = load_bounds(bounds_path)
    out = check_bounds(bounds, iterations)
    out += check_cut_count(inst, cuts, iterations)
    if bounds:
        out += check_lower_bound(inst, cuts, bounds[-1])
    if cuts:
        out += check_last_cuts(inst, cuts, capacity, rng)
    return out


def parse_evaluate(stdout: str) -> dict[str, float]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            fields[key.strip()] = float(value)
    return fields


def check_evaluate(outputs: list[dict[str, float]], samples: int, lower_bound: float) -> list[str]:
    """Each ``evaluate`` call reports the sample count that was asked for,
    and the calls' pooled Monte-Carlo policy cost plus three standard errors
    is at least the lower bound.  Pooling keeps the chance of a false alarm
    per run near that of one 3-sigma test, however many calls a run makes."""
    out = []
    means, errors = [], []
    for fields in outputs:
        if fields.get("samples") != samples:
            out.append(f"evaluate reports {fields.get('samples')} samples, {samples} requested")
        if "policy_cost_mean" not in fields or "policy_cost_stderr" not in fields:
            out.append("evaluate printed no policy_cost_mean / policy_cost_stderr")
            continue
        means.append(fields["policy_cost_mean"])
        errors.append(fields["policy_cost_stderr"])
    if means:
        mean = float(np.mean(means))
        stderr = float(np.sqrt(np.sum(np.square(errors)))) / len(means)
        if mean + 3.0 * stderr < lower_bound - REL_TOL * max(1.0, abs(lower_bound)):
            out.append(
                f"policy cost {mean!r} + 3 x {stderr!r} over {len(means)} calls "
                f"lies below the lower bound {lower_bound!r}"
            )
    return out


def check_kkt(res, A, b, c, G) -> list[str]:
    """KKT conditions of ``min c.y + y'Gy/2, Ay = b, y >= 0`` at a QP
    result, with the tolerances of the package's QP tests."""
    if res.status != "optimal":
        return [f"QP status {res.status}"]
    y, lam = res.x, res.reduced_costs
    scale = 1.0 + abs(res.objective)
    stat = c + G @ y - A.T @ res.duals - lam
    out = []
    for name, value, limit in (
        ("stationarity", np.abs(stat).max(), 1e-8 * scale),
        ("feasibility", np.abs(A @ y - b).max(), 1e-8 * (1.0 + np.abs(b).max())),
        ("primal sign", -y.min(), 1e-10),
        ("dual sign", -lam.min(), 1e-7 * scale),
        ("complementarity", np.abs(y * lam).max(), 1e-8 * scale),
    ):
        if not value <= limit:
            out.append(f"QP {name} residual {value:.3g} exceeds {limit:.3g}")
    return out


def check_same_output(first, other, label: str) -> list[str]:
    """A call with the same inputs as the first gives the same output."""
    return [] if other == first else [f"{label} differs from the first call's"]
