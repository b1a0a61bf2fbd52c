"""Self-test of the benchmark's output checks: each check passes on the
program's real outputs and rejects a perturbed copy of them.

Run from the repository root:

    python3 perfbench/selftest.py

It solves a small storage instance (2 devices, 6 periods) plain and
regularized, evaluates the plain policy, and exits 1 if any check accepts
a wrong output or rejects a right one.
"""
from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import OUT, call_cli, import_cli  # noqa: E402  (imports sddpkit first)

import checks  # noqa: E402
import numpy as np  # noqa: E402

ITERS = 8
SAMPLES = 10


def main() -> int:
    cli = import_cli()
    import sddpkit.qp as qp
    from sddpkit.storage import StorageNetworkParams

    capacity = StorageNetworkParams().energy_capacity
    d = OUT / "selftest"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    inst_path, cuts_path, bounds_path = d / "instance.json", d / "cuts.json", d / "bounds.csv"
    steps = [
        ["generate", "--out", str(inst_path), "--n-storage", "2", "--t-periods", "6", "--seed", "3"],
        ["solve", str(inst_path), "--iters", str(ITERS), "--ub-every", "0", "--seed", "1",
         "--out-cuts", str(cuts_path), "--out-table", str(bounds_path)],
    ]
    for argv in steps:
        if call_cli(cli, argv, None)[0] != 0:
            return 1
    rc, stdout = call_cli(cli, ["evaluate", str(inst_path), str(cuts_path),
                                "--samples", str(SAMPLES), "--seed", "2"], None)
    if rc != 0:
        return 1

    qps = []
    inner = qp.solve_standard_qp

    def capture(A, b, c, G, **kwargs):
        res = inner(A, b, c, G, **kwargs)
        qps.append((res, A, b, c, G))
        return res

    qp.solve_standard_qp = capture
    try:
        rc = call_cli(cli, ["solve", str(inst_path), "--regularized", "--iters", "3",
                            "--ub-every", "0", "--out-cuts", str(d / "reg_cuts.json")], None)[0]
    finally:
        qp.solve_standard_qp = inner
    if rc != 0 or not qps:
        return 1

    inst = checks.Instance(inst_path)
    cuts = checks.load_cuts(cuts_path)
    bounds = checks.load_bounds(bounds_path)
    lb = checks.stage_value(inst, cuts, 0, 0, None)
    fields = checks.parse_evaluate(stdout)
    res, A, b, c, G = max(qps, key=lambda q: q[0].n_superbasic)

    def last_iteration_cut(groups):
        """A last-iteration cut whose anchor is below capacity somewhere."""
        for group in groups.values():
            for g in group:
                if g["born"] == ITERS - 1 and g["anchor"].min() < capacity - 1e-6:
                    return g
        raise RuntimeError("no last-iteration cut below capacity")

    def cuts_with(edit):
        groups = copy.deepcopy(cuts)
        edit(groups)
        return groups

    def shift_alpha(groups):
        g = last_iteration_cut(groups)
        g["alpha"] += 1e-4 * max(1.0, abs(g["alpha"]))

    def tilt_beta(groups):
        last_iteration_cut(groups)["beta"] += 1e3

    def drop_cut(groups):
        next(iter(groups.values())).pop()

    def rng():
        return np.random.default_rng(0)

    def result_with(**changes):
        out = copy.deepcopy(res)
        for name, value in changes.items():
            setattr(out, name, value)
        return out

    j = int(np.argmax(res.x))
    x_bad = res.x.copy()
    x_bad[j] *= 1.01
    cases = [
        ("bounds never decrease", lambda bs: checks.check_bounds(bs, ITERS),
         bounds, bounds[:-1] + [bounds[-2] - 1.0]),
        ("bounds have one row per iteration", lambda bs: checks.check_bounds(bs, ITERS),
         bounds, bounds[:-1]),
        ("cut count", lambda g: checks.check_cut_count(inst, g, ITERS), cuts, cuts_with(drop_cut)),
        ("final lower bound", lambda v: checks.check_lower_bound(inst, cuts, v),
         bounds[-1], bounds[-1] * (1 + 1e-5) + 1e-3),
        ("cut intercept at anchor", lambda g: checks.check_last_cuts(inst, g, capacity, rng()),
         cuts, cuts_with(shift_alpha)),
        ("cut below value elsewhere", lambda g: checks.check_last_cuts(inst, g, capacity, rng()),
         cuts, cuts_with(tilt_beta)),
        ("policy cost above lower bound", lambda f: checks.check_evaluate([f], SAMPLES, lb),
         fields, {**fields, "policy_cost_mean": lb - 4.0 * fields["policy_cost_stderr"] - 1.0}),
        ("sample count", lambda f: checks.check_evaluate([f], SAMPLES, lb),
         fields, {**fields, "samples": SAMPLES - 1}),
        ("same output as the first call", lambda g: checks.check_same_output(cuts_path.read_bytes(), g, "cut file"),
         cuts_path.read_bytes(), cuts_path.read_bytes().replace(b"1", b"2", 1)),
        ("QP feasibility", lambda r: checks.check_kkt(r, A, b, c, G), res, result_with(x=x_bad)),
        ("QP stationarity", lambda r: checks.check_kkt(r, A, b, c, G),
         res, result_with(duals=res.duals + 1e-3)),
        ("QP reduced costs", lambda r: checks.check_kkt(r, A, b, c, G),
         res, result_with(reduced_costs=res.reduced_costs - 1.0)),
    ]
    ok = True
    for name, check, good, bad in cases:
        passes, rejects = check(good), check(bad)
        status = "ok" if not passes and rejects else "FAIL"
        ok = ok and status == "ok"
        print(f"{status}: {name}: accepts the real output: {not passes}; "
              f"rejects the perturbed one: {bool(rejects)}"
              + (f" ({rejects[0]})" if rejects else ""))
        for msg in passes:
            print(f"    real output rejected: {msg}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
