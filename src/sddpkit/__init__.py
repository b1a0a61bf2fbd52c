"""Multistage stochastic LP solving via SDDP and its regularized variants.

Importing the package sets OpenBLAS to one thread, overriding any inherited
``OPENBLAS_NUM_THREADS``.  The stage LPs and QPs are a few hundred rows,
too small for BLAS threads to pay off, and with two threads the rounding,
and so the cut file, depends on the thread count.  OpenBLAS reads the
variable when numpy or scipy first loads it: a program that imports numpy
before ``sddpkit`` keeps its own thread count.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .cuts import Cut, CutPool, load_cuts, save_cuts
from .engine import (
    EngineConfig,
    IterationStats,
    PolicyDecision,
    RegularizationSchedule,
    SddpState,
    SolveReport,
    Trajectory,
    backward_pass,
    estimate_upper_bound,
    forward_pass,
    init_state,
    iterate,
    lower_bound,
    policy_decision,
    run,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    EngineError,
    FormatVersionError,
    InfeasibleSubproblemError,
    MalformedFileError,
    NumericalBreakdown,
    ResidualCheckError,
    SddpkitError,
    TooManyPaths,
)
from .model import (
    MultistageProblem,
    ProcessKind,
    ScenarioPath,
    StageRealization,
    UncertaintyProcess,
    ValidationReport,
    enumerate_paths,
    load_instance,
    sample_path,
    save_instance,
    validate,
)
from .oracle import (
    build_and_solve_extensive_form,
    build_extensive_form,
    evaluate_policy_exact,
    exact_value_function,
    extensive_form_root_decision,
)
from .subproblem import (
    BundledSolver,
    SolveStatus,
    SubproblemSolution,
    SubproblemSpec,
    verify_residuals,
)

__version__ = "0.1.0"

__all__ = [
    "BundledSolver",
    "ConfigError",
    "Cut",
    "CutPool",
    "DimensionMismatch",
    "EngineConfig",
    "EngineError",
    "FormatVersionError",
    "InfeasibleSubproblemError",
    "IterationStats",
    "MalformedFileError",
    "MultistageProblem",
    "NumericalBreakdown",
    "PolicyDecision",
    "ProcessKind",
    "RegularizationSchedule",
    "ResidualCheckError",
    "ScenarioPath",
    "SddpState",
    "SddpkitError",
    "SolveReport",
    "SolveStatus",
    "StageRealization",
    "SubproblemSolution",
    "SubproblemSpec",
    "TooManyPaths",
    "Trajectory",
    "UncertaintyProcess",
    "ValidationReport",
    "backward_pass",
    "build_and_solve_extensive_form",
    "build_extensive_form",
    "enumerate_paths",
    "estimate_upper_bound",
    "evaluate_policy_exact",
    "exact_value_function",
    "extensive_form_root_decision",
    "forward_pass",
    "init_state",
    "iterate",
    "load_cuts",
    "load_instance",
    "lower_bound",
    "policy_decision",
    "run",
    "sample_path",
    "save_cuts",
    "save_instance",
    "validate",
    "verify_residuals",
]
