"""sddpkit benchmark: storage workloads run in-process through ``cli_main``.

Run from the repository root:

    python3 perfbench/run.py --workload plain-growth --seed 1 --seconds 30 --trace 0

The run sets up three times (instance generation, and for ``policy-eval``
the solve that makes the cut file), then makes CLI calls one at a time
(closed loop) until ``--seconds`` is spent.  Instances and engine seeds are
pinned, so the ``solve`` calls of a run all do the same work; ``--seed``
sets the Monte-Carlo sample seeds of the ``evaluate`` calls (one per call)
and the points at which the checks probe the cuts.  Every output is then checked against HiGHS
(``checks.py``).  The last line printed is one JSON object: end-to-end
metrics with ``--trace 0``, per-layer metrics from a traced run with
``--trace 1``.  Outputs go to ``.perfbench_out/`` in the working
directory; ``perfbench/README.md`` describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
# The package is imported before numpy and scipy, so that what it sets up
# when imported (the BLAS thread count, say) holds here as under its CLI.
if (SRC / "sddpkit" / "__init__.py").is_file():
    sys.path.insert(0, str(SRC))
    import sddpkit.cli

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
from spans import LAYERS, Tracer, install, span_cost_s, uninstall  # noqa: E402

OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
THRESHOLD = 0.99
# The program fails a residual check on some engine and instance seeds
# (see CHANGES.md), so the solve inputs do not move with --seed: a failure
# that comes and goes with the seed cannot be counted the same in every run.
ENGINE_SEED = 0


@dataclass(frozen=True)
class Workload:
    n_storage: int  # also the generator seed of the workload's instance
    method: tuple[str, ...] = ()  # solve flags that choose the method
    iterations: int = 0  # solve workloads
    samples: int = 0  # evaluate workload
    cut_iterations: int = 0  # plain solve made in set-up for evaluate


WORKLOADS = {
    # Warm-started LPs with a cut count that grows to 60 per family.
    "plain-growth": Workload(
        n_storage=5,
        method=("--plain",),
        iterations=60,
    ),
    # The paper's method at the fleet size of the acceptance gate.
    "regularized-n20": Workload(
        n_storage=20,
        method=("--regularized", "--rho0", "1", "--decay", "0.95"),
        iterations=5,
    ),
    # Cold two-phase LPs with every cut embedded: no growth, no QP.  Short
    # calls, each on its own sample paths: many calls per run.
    "policy-eval": Workload(
        n_storage=10,
        samples=10,
        cut_iterations=15,
    ),
}


@dataclass
class Timings:
    """What the clock saw during one call."""

    run_start: float = 0.0
    iter_ends: list[float] = field(default_factory=list)
    ub_seconds: float = 0.0


@dataclass
class Call:
    argv: list[str]
    rc: int
    seconds: float
    stdout: str
    timings: Timings


def import_cli():
    """``sddpkit.cli`` from ``./src``; exit 2 when it is not there."""
    if "sddpkit.cli" not in sys.modules:
        print(f"error: no sddpkit package under {SRC}", file=sys.stderr)
        sys.exit(2)
    return sys.modules["sddpkit.cli"]


def blas_threads() -> dict[str, int]:
    """OpenBLAS thread counts of numpy's and scipy's bundled libraries."""
    import scipy

    found = {}
    for pkg, fn in (
        (np, "scipy_openblas_get_num_threads64_"),
        (scipy, "scipy_openblas_get_num_threads"),
    ):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in glob.glob(str(libs / "libscipy_openblas*")):
            get = getattr(ctypes.CDLL(lib), fn, None)
            if get is not None:
                get.restype = ctypes.c_int
                get.argtypes = []
                found[pkg.__name__] = int(get())
    return found


class Clock:
    """Times ``engine.run``, each ``engine.iterate`` and
    ``engine.estimate_upper_bound`` from outside the package, into the
    ``Timings`` of the current call."""

    def __init__(self, engine):
        self.t = Timings()
        self._saved = []
        for owner, attr, wrap in (
            (engine, "run", self._run),
            (engine, "iterate", self._iterate),
            (engine, "estimate_upper_bound", self._ub),
        ):
            inner = getattr(owner, attr)
            self._saved.append((owner, attr, inner))
            setattr(owner, attr, wrap(inner))

    def _run(self, inner):
        def run(*args, **kwargs):
            self.t.run_start = time.perf_counter()
            return inner(*args, **kwargs)

        return run

    def _iterate(self, inner):
        def iterate(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                self.t.iter_ends.append(time.perf_counter())

        return iterate

    def _ub(self, inner):
        def estimate_upper_bound(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.t.ub_seconds += time.perf_counter() - t0

        return estimate_upper_bound

    def reset(self) -> Timings:
        self.t = Timings()
        return self.t

    def restore(self) -> None:
        for owner, attr, inner in reversed(self._saved):
            setattr(owner, attr, inner)


def call_cli(cli, argv: list[str], tracer: Tracer | None) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                rc = cli.cli_main(argv)
            else:
                rc = tracer.span("cli.cli_main", "cli", cli.cli_main, argv)
        except Exception:  # a crash counts as a failed call, and is shown
            traceback.print_exc()
            rc = -1
    if rc != 0:
        print(f"call {' '.join(argv)} exited {rc}:\n{err.getvalue()}", file=sys.stderr)
    return rc, out.getvalue()


def files(run_dir: Path) -> dict[str, str]:
    return {
        "instance": str(run_dir / "instance.json"),
        "cuts": str(run_dir / "policy_cuts.json"),
        "bounds": str(run_dir / "policy_bounds.csv"),
    }


def setup(cli, w: Workload, run_dir: Path, tracer) -> float:
    f = files(run_dir)
    t0 = time.perf_counter()
    steps = [[
        "generate", "--out", f["instance"], "--n-storage", str(w.n_storage),
        "--t-periods", "24", "--n-regimes", "3", "--seed", str(w.n_storage),
    ]]
    if w.cut_iterations:
        steps.append([
            "solve", f["instance"], "--plain", "--iters", str(w.cut_iterations),
            "--ub-every", "0", "--workers", "1", "--seed", str(ENGINE_SEED),
            "--out-cuts", f["cuts"], "--out-table", f["bounds"],
        ])
    for argv in steps:
        if call_cli(cli, argv, tracer)[0] != 0:
            raise SystemExit(f"error: set-up step {argv[0]} failed")
    return time.perf_counter() - t0


def call_argv(w: Workload, run_dir: Path, seed: int, r: int) -> list[str]:
    """The r-th timed call.  The solve calls of a run do the same work and
    differ only in their output files; each evaluate call samples its own
    paths."""
    f = files(run_dir)
    if w.samples:
        return [
            "evaluate", f["instance"], f["cuts"], "--samples", str(w.samples),
            "--workers", "1", "--seed", str(seed * 1000 + r),
        ]
    return [
        "solve", f["instance"], *w.method, "--iters", str(w.iterations),
        "--ub-every", "0", "--workers", "1",
        "--seed", str(ENGINE_SEED),
        "--out-cuts", str(run_dir / f"cuts_{r}.json"),
        "--out-table", str(run_dir / f"bounds_{r}.csv"),
    ]


def timed_calls(cli, clock: Clock, w, run_dir, seed, seconds, tracer) -> list[Call]:
    """Closed loop: one call at a time; no call starts that would, at the
    last call's length, end past ``seconds``."""
    calls: list[Call] = []
    start = time.perf_counter()
    while True:
        argv = call_argv(w, run_dir, seed, len(calls))
        timings = clock.reset()
        t0 = time.perf_counter()
        rc, stdout = call_cli(cli, argv, tracer)
        dt = time.perf_counter() - t0
        calls.append(Call(argv, rc, dt, stdout, timings))
        if time.perf_counter() - start + dt > seconds:
            return calls


def iters_to_threshold(lbs: list[float]) -> int:
    """First iteration that closes THRESHOLD of the climb from iteration 0
    to the final bound (the rule of ``sddpkit bench``)."""
    target = lbs[0] + THRESHOLD * (lbs[-1] - lbs[0])
    return next(
        k for k, lb in enumerate(lbs) if lb >= target - 1e-12 * (1.0 + abs(target))
    )


def run_checks(w: Workload, run_dir: Path, calls: list[Call], seed: int, capacity: float) -> list[str]:
    """HiGHS checks on every evaluate call, or on the first solve call,
    whose repeats must then give the same outputs."""
    if not calls:
        return []
    f = files(run_dir)
    inst = checks.Instance(f["instance"])
    rng = np.random.default_rng(seed)
    first = calls[0]
    try:
        if w.samples:
            failures = checks.check_solve(inst, f["cuts"], f["bounds"], w.cut_iterations, capacity, rng)
            lb = checks.stage_value(inst, checks.load_cuts(f["cuts"]), 0, 0, None)
            outputs = [checks.parse_evaluate(c.stdout) for c in calls]
            return failures + checks.check_evaluate(outputs, w.samples, lb)
        failures = checks.check_solve(inst, out_file(first, "--out-cuts"),
                                      out_file(first, "--out-table"), w.iterations, capacity, rng)
    except RuntimeError as exc:
        return [str(exc)]
    for c in calls[1:]:
        for flag, read in (("--out-cuts", lambda f: Path(f).read_bytes()), ("--out-table", checks.load_bounds)):
            failures += checks.check_same_output(
                read(out_file(first, flag)), read(out_file(c, flag)), out_file(c, flag)
            )
    return failures


def out_file(c: Call, flag: str) -> str:
    return c.argv[c.argv.index(flag) + 1]


def figures(w: Workload, calls: list[Call]) -> dict[str, float]:
    """Medians over the run's calls: the call time, and per iteration (or
    per simulated path) its time.  Late iterations are the last tenth, and
    at least the last three."""
    out = {"run_s": statistics.median(c.seconds for c in calls)}
    if w.samples:
        out["late_iter_ms"] = 1e3 * statistics.median(c.timings.ub_seconds for c in calls) / w.samples
        return out
    ends = np.array([[c.timings.run_start, *c.timings.iter_ends] for c in calls])
    iter_ms = 1e3 * np.median(np.diff(ends, axis=1), axis=0)
    k99 = iters_to_threshold(checks.load_bounds(out_file(calls[0], "--out-table")))
    out["late_iter_ms"] = float(np.median(iter_ms[-max(3, len(iter_ms) // 10):]))
    out["iters_to_99"] = float(k99)
    out["s_to_99"] = float(np.median(ends[:, k99 + 1] - ends[:, 0]))
    return out


def per_layer(tracer: Tracer, setup_by_name, calls, fig, n_setups) -> dict:
    n = len(calls)
    by_name, self_by_layer = tracer.totals()
    counts = tracer.counts
    lp_s = by_name.get("simplex.solve_standard_lp", 0.0) + by_name.get("qp.lp_start", 0.0)
    m: dict[str, tuple[float, str]] = {}

    def sec(name):
        m[f"{name}.s"] = (by_name.get(name, 0.0) / n, "s")

    for name in (
        "engine.forward_pass", "engine.backward_pass", "engine.lower_bound",
        "engine.estimate_upper_bound", "stages.policy_subproblem", "cuts.embed",
        "subproblem.solve", "subproblem.verify_residuals", "simplex.lu_factor",
        "simplex.lu_solve", "qp.solve_standard_qp", "model.load_instance",
        "cuts.save", "cuts.load_cuts", "bench.kkt_check",
    ):
        sec(name)
    m["simplex.solve_standard_lp.s"] = (lp_s / n, "s")
    m["qp.lp_start.s"] = (by_name.get("qp.lp_start", 0.0) / n, "s")
    m["storage.generate_storage_instance.s"] = (
        setup_by_name.get("storage.generate_storage_instance", 0.0) / n_setups, "s"
    )
    for name, unit in (
        ("stages.policy_subproblem.calls", "count"),
        ("cuts.embed.rows", "count"),
        ("cuts.binding_rows", "count"),
        ("subproblem.solve.lp_calls", "count"),
        ("subproblem.solve.qp_calls", "count"),
        ("simplex.solve_standard_lp.warm_calls", "count"),
        ("simplex.solve_standard_lp.cold_calls", "count"),
        ("simplex.lu_factor.calls", "count"),
        ("simplex.lu_solve.calls", "count"),
        ("qp.solve_standard_qp.calls", "count"),
        ("qp.superbasics", "count"),
        ("cuts.save.bytes", "B"),
    ):
        m[name] = (counts.get(name, 0.0) / n, unit)
    embedded = counts.get("cuts.embed.rows", 0.0)
    m["cuts.binding_share"] = (counts.get("cuts.binding_rows", 0.0) / embedded if embedded else 0.0, "ratio")
    for layer in LAYERS:
        m[f"self.{layer}.s"] = (self_by_layer.get(layer, 0.0) / n, "s")
    m["engine.iters_to_99"] = (fig.get("iters_to_99", 0.0), "count")
    m["engine.s_to_99"] = (fig.get("s_to_99", 0.0), "s")
    m["trace.run_s"] = (fig.get("run_s", 0.0), "s")
    m["trace.spans"] = (len(tracer.spans) / n, "count")
    m["trace.overhead_s"] = (len(tracer.spans) * span_cost_s() / n, "s")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    w = WORKLOADS[args.workload]
    cli = import_cli()
    import sddpkit.engine
    from sddpkit.storage import StorageNetworkParams

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    tracer = Tracer() if args.trace else None
    kkt_failures: list[str] = []

    def kkt(res, A, b, c, G):
        kkt_failures.extend(checks.check_kkt(res, A, b, c, G))

    saved = install(tracer, kkt_check=kkt) if tracer else []
    clock = Clock(sddpkit.engine)
    try:
        setup_times = [setup(cli, w, run_dir, tracer) for _ in range(SETUP_REPEATS)]
        setup_by_name = {}
        if tracer:
            setup_by_name, _ = tracer.totals()
            tracer.write(run_dir / "setup_trace.jsonl")
            tracer.reset()
        calls = timed_calls(cli, clock, w, run_dir, args.seed, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        clock.restore()
        uninstall(saved)

    ok = [c for c in calls if c.rc == 0]
    failures = run_checks(w, run_dir, ok, args.seed, StorageNetworkParams().energy_capacity)
    failures += kkt_failures
    fig = figures(w, ok) if ok else {}
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print(f"cores: {os.cpu_count()}  blas_threads: {blas_threads()}")
    print(f"calls: {len(calls)} attempted, {len(calls) - len(ok)} failed")
    print("call_s: " + " ".join(f"{c.seconds:.3f}" for c in calls))
    if tracer:
        tracer.write(run_dir / "trace.jsonl")
        metrics = per_layer(tracer, setup_by_name, calls, fig, SETUP_REPEATS)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (fig.get("run_s", 0.0), "s"),
            "late_iter_ms": (fig.get("late_iter_ms", 0.0), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        for key in ("iters_to_99", "s_to_99"):
            if key in fig:
                print(f"{key} (per-layer metric engine.{key}): {fig[key]:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and bool(ok),
        "attempted": len(calls),
        "failed": len(calls) - len(ok),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
