"""Command-line interface: generate / solve / verify / evaluate / bench."""
from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

import numpy as np

from . import engine, oracle, storage
from .cuts import CutPool, load_cuts
from .errors import ConfigError, DimensionMismatch, SddpkitError
from .model import load_instance, load_json, save_instance, validate


def _add_workers_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted, but starts no threads and changes no result: the "
        "pure-Python simplex holds the GIL, and a thread pool measured "
        "slower than a serial run",
    )


def _non_negative_int(text: str) -> int:
    """Argparse type of a seed: numpy's ``SeedSequence`` rejects a negative
    one, and only after the run has started."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def _number_list(kind):
    """Argparse type of a non-empty comma-separated list of ``kind``."""

    def parse(text: str) -> list:
        try:
            return [kind(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of numbers, got {text!r}"
            ) from None

    return parse


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iters", type=int, default=100, help="iteration count K")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--regularized", action="store_true", help="quadratic proximal forward pass"
    )
    mode.add_argument(
        "--plain", action="store_true", help="unregularized baseline (default)"
    )
    p.add_argument("--rho0", type=float, default=1.0)
    p.add_argument("--decay", type=float, default=0.95)
    p.add_argument("--ub-samples", type=int, default=100)
    p.add_argument("--ub-every", type=int, default=10, help="0 disables UB estimation")
    p.add_argument("--q-scale", default="identity", help="identity or diag:<file>")
    _add_workers_flag(p)
    p.add_argument("--early-stop-patience", type=int, default=0)
    p.add_argument("--paths-per-iter", type=int, default=1)
    p.add_argument("--debug-dump", default=None, help="directory for JSON replay files")


def _config_from_args(args, iterations=None, regularized=None) -> engine.EngineConfig:
    q_scale = None
    if args.q_scale != "identity":
        if not args.q_scale.startswith("diag:"):
            raise SddpkitError(
                f"--q-scale must be 'identity' or 'diag:<file>', got {args.q_scale!r}"
            )
        q_scale = load_json(
            args.q_scale[5:],
            "Q scale",
            lambda obj: [np.asarray(q, dtype=float) for q in obj],
        )
    return engine.EngineConfig(
        iterations=iterations if iterations is not None else args.iters,
        seed=args.seed,
        regularized=regularized if regularized is not None else args.regularized,
        schedule=engine.RegularizationSchedule(args.rho0, args.decay),
        q_scale=q_scale,
        ub_samples=args.ub_samples,
        ub_every=args.ub_every,
        early_stop_patience=args.early_stop_patience,
        paths_per_iteration=args.paths_per_iter,
        debug_dump=args.debug_dump,
    )


def _cmd_generate(args) -> int:
    if args.params:
        params = storage.load_params(args.params)
    else:
        params = storage.StorageNetworkParams()
    if args.n_storage is not None:
        params.n_storage = args.n_storage
    if args.t_periods is not None:
        params.T = args.t_periods
    if args.n_regimes is not None:
        params.n_regimes = args.n_regimes
    if args.p_stay is not None:
        params.p_stay = args.p_stay
    if args.stagewise:
        params.markov = False
    bad = params.violations()
    if bad:
        print("error: invalid storage params: " + "; ".join(bad), file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    problem = storage.generate_storage_instance(params, rng)
    report = validate(problem)
    if not report.ok:
        print("generated instance failed validation:", file=sys.stderr)
        for v in report.violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    save_instance(problem, args.out)
    print(f"wrote {args.out} (T={problem.T}, storage={params.n_storage})")
    return 0


def _check_out_dirs(*flags: tuple[str, str | None]) -> None:
    """Fail on an output path whose directory does not exist before any work
    starts, not after the run that was to fill it.  ``flags`` are (flag,
    path) pairs; an unset path is skipped."""
    for flag, out in flags:
        if out and not Path(out).parent.is_dir():
            raise ConfigError(
                f"{flag} {out}: directory {Path(out).parent} does not exist"
            )


def _cmd_solve(args) -> int:
    _check_out_dirs(("--out-cuts", args.out_cuts), ("--out-table", args.out_table))
    problem = load_instance(args.instance)
    config = _config_from_args(args)
    pool, report = engine.run(problem, config)
    if args.out_cuts:
        pool.save(args.out_cuts)
    if args.out_table:
        report.save_csv(args.out_table)
    final = report.lower_bounds[-1] if report.lower_bounds else float("nan")
    print(f"iterations: {len(report.iterations)}")
    print(f"final_lower_bound: {final:.6f}")
    print(f"cuts: {pool.total_cuts()}")
    return 0


def _load_cuts_for(problem, path) -> CutPool:
    """The cut pool of the file ``path``, which must be laid out as
    ``problem``'s pool is (``CutPool.for_problem``): a pool of another
    instance indexes past its stages or bounds the wrong problem."""
    pool = load_cuts(path)
    want = CutPool.for_problem(problem)
    if (pool.resource_dims, pool.n_info) != (want.resource_dims, want.n_info):
        raise DimensionMismatch(
            f"cut file {path} holds resource_dims {pool.resource_dims}, n_info "
            f"{pool.n_info}; the instance needs resource_dims "
            f"{want.resource_dims}, n_info {want.n_info}"
        )
    return pool


def _cmd_verify(args) -> int:
    _check_out_dirs(("--out", args.out))
    problem = load_instance(args.instance)
    pool = _load_cuts_for(problem, args.cuts)
    lb = engine.policy_decision(problem, pool, 0, -1, None).objective
    v_star = oracle.build_and_solve_extensive_form(problem, node_limit=args.node_limit)
    gap = v_star - lb
    ok = lb <= v_star + args.tol
    lines = [
        f"lb: {lb:.6f}",
        f"v_star: {v_star:.6f}",
        f"gap: {gap:.6f}",
        f"status: {'ok' if ok else 'bound-violation'}",
    ]
    text = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0 if ok else 1


def _cmd_evaluate(args) -> int:
    problem = load_instance(args.instance)
    pool = _load_cuts_for(problem, args.cuts)
    if args.exact:
        cost = oracle.evaluate_policy_exact(problem, pool, node_limit=args.node_limit)
        print(f"policy_cost_exact: {cost:.6f}")
        return 0
    rng = np.random.default_rng(args.seed)
    mean, stderr = engine.estimate_upper_bound(
        problem,
        pool,
        args.samples,
        rng,
        config=engine.EngineConfig(debug_dump=args.debug_dump),
    )
    print(f"policy_cost_mean: {mean:.6f}")
    print(f"policy_cost_stderr: {stderr:.6f}")
    print(f"samples: {args.samples}")
    return 0


def _iterations_to_threshold(
    lbs: list[float], fraction: float, reference: float | None = None
) -> int:
    """First iteration where the bound has closed ``fraction`` of the climb
    from its initial value to ``reference`` (the run's own final by
    default).

    Shift-invariant, so constant cost terms don't trivialize it; passing
    the weaker final of a method pair as the reference scores both runs
    against a target they both reach.
    """
    final, first = lbs[-1], lbs[0]
    if reference is None:
        reference = final
    target = first + fraction * (reference - first)
    for k, lb in enumerate(lbs):
        if lb >= target - 1e-12 * (1.0 + abs(target)):
            return k
    return len(lbs) - 1


def _cmd_bench(args) -> int:
    if not 0.0 < args.threshold <= 1.0:
        raise ConfigError(f"threshold must lie in (0, 1], got {args.threshold!r}")
    problem = load_instance(args.instance)
    seeds, rho0s, decays = args.seeds, args.rho0_grid, args.decay_grid
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary_rows = ["method,rho0,decay,seed,final_lb,iters_to_threshold"]
    plain_reports: dict[int, engine.SolveReport] = {}
    reg_iters: list[int] = []
    plain_iters: list[int] = []
    # per seed, the wall seconds of the iterations through the hit
    reg_seconds: list[float] = []
    plain_seconds: list[float] = []

    for seed in seeds:
        cfg = engine.EngineConfig(
            iterations=args.iters,
            seed=seed,
            regularized=False,
            ub_every=0,
        )
        _, plain_reports[seed] = engine.run(problem, cfg)

    for rho0 in rho0s:
        for decay in decays:
            for seed in seeds:
                cfg = engine.EngineConfig(
                    iterations=args.iters,
                    seed=seed,
                    regularized=True,
                    schedule=engine.RegularizationSchedule(rho0, decay),
                    ub_every=0,
                )
                _, report = engine.run(problem, cfg)
                lbs = report.lower_bounds
                base = plain_reports[seed].lower_bounds
                # both methods are scored against the weaker of the two
                # final bounds so a better final is never penalized
                reference = min(base[-1], lbs[-1])
                hit = _iterations_to_threshold(lbs, args.threshold, reference)
                plain_hit = _iterations_to_threshold(
                    base, args.threshold, reference
                )
                if (rho0, decay) == (rho0s[0], decays[0]):
                    reg_iters.append(hit)
                    plain_iters.append(plain_hit)
                    reg_seconds.append(sum(report.wall_ms[: hit + 1]) / 1e3)
                    plain_seconds.append(
                        sum(plain_reports[seed].wall_ms[: plain_hit + 1]) / 1e3
                    )
                    summary_rows.append(
                        f"plain,,,{seed},{base[-1]!r},{plain_hit}"
                    )
                summary_rows.append(
                    f"regularized,{rho0!r},{decay!r},{seed},{lbs[-1]!r},{hit}"
                )
                pair = out_dir / f"bounds_r{rho0:g}_d{decay:g}_s{seed}.csv"
                lines = ["iter,plain_lb,regularized_lb"]
                for k in range(max(len(base), len(lbs))):
                    pl = repr(float(base[k])) if k < len(base) else ""
                    rg = repr(float(lbs[k])) if k < len(lbs) else ""
                    lines.append(f"{k},{pl},{rg}")
                pair.write_text("\n".join(lines) + "\n")

    plain_median = statistics.median(plain_iters)
    reg_median = statistics.median(reg_iters)
    summary = out_dir / "summary.csv"
    summary.write_text("\n".join(summary_rows) + "\n")
    print(f"threshold_fraction: {args.threshold}")
    print(f"plain_median_iters_to_threshold: {plain_median}")
    print(f"regularized_median_iters_to_threshold: {reg_median}")
    print(
        "plain_median_seconds_to_threshold: "
        f"{statistics.median(plain_seconds):.6f}"
    )
    print(
        "regularized_median_seconds_to_threshold: "
        f"{statistics.median(reg_seconds):.6f}"
    )
    print(
        "regularized_not_slower: "
        + ("yes" if reg_median <= plain_median else "no")
    )
    print(f"wrote {summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sddpkit",
        description="SDDP solver for multistage stochastic linear programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a storage benchmark instance")
    g.add_argument("--params", default=None, help="params JSON file")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=_non_negative_int, default=0)
    g.add_argument("--n-storage", type=int, default=None)
    g.add_argument("--t-periods", type=int, default=None)
    g.add_argument("--n-regimes", type=int, default=None)
    g.add_argument("--p-stay", type=float, default=None)
    g.add_argument("--stagewise", action="store_true")
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="run SDDP on an instance")
    s.add_argument("instance")
    s.add_argument("--out-cuts", default=None)
    s.add_argument("--out-table", default=None)
    _add_engine_flags(s)
    s.set_defaults(func=_cmd_solve)

    v = sub.add_parser("verify", help="compare a cut file against the exact optimum")
    v.add_argument("instance")
    v.add_argument("cuts")
    v.add_argument("--tol", type=float, default=1e-6)
    v.add_argument("--node-limit", type=int, default=oracle.DEFAULT_NODE_LIMIT)
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("evaluate", help="evaluate the cut policy's cost")
    e.add_argument("instance")
    e.add_argument("cuts")
    e.add_argument("--samples", type=int, default=1000)
    e.add_argument("--seed", type=_non_negative_int, default=0)
    e.add_argument("--exact", action="store_true")
    _add_workers_flag(e)
    e.add_argument("--node-limit", type=int, default=oracle.DEFAULT_NODE_LIMIT)
    e.add_argument("--debug-dump", default=None, help="directory for JSON replay files")
    e.set_defaults(func=_cmd_evaluate)

    b = sub.add_parser("bench", help="regularized vs plain bound trajectories")
    b.add_argument("instance")
    b.add_argument("--seeds", type=_number_list(_non_negative_int), default="0,1,2,3,4")
    b.add_argument("--iters", type=int, default=40)
    b.add_argument("--rho0-grid", type=_number_list(float), default="1")
    b.add_argument("--decay-grid", type=_number_list(float), default="0.95")
    b.add_argument("--threshold", type=float, default=0.99)
    b.add_argument("--out-dir", required=True)
    _add_workers_flag(b)
    b.set_defaults(func=_cmd_bench)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SddpkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
