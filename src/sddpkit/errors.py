"""Exception types shared across the package."""


class SddpkitError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SddpkitError):
    """Vector/matrix shapes disagree with the stage they are used in."""


class TooManyPaths(SddpkitError):
    """Scenario enumeration would exceed the configured path/node budget."""


class MalformedFileError(SddpkitError):
    """A structured data file could not be parsed."""


class FormatVersionError(MalformedFileError):
    """A structured data file declares an unsupported format/version."""


class NumericalBreakdown(SddpkitError):
    """A solver could not finish, in its first attempt and in its one cold
    retry: a basis matrix was singular, the final basis was ill-conditioned
    or primal infeasible, the QP active set stalled at a degenerate point,
    the QP's final point (from its last reduced Newton step and the basis
    kernel's polish) was infeasible or missed the constraints, or an
    iteration limit was reached."""


class ConfigError(SddpkitError, ValueError):
    """An engine setting or argument is out of range.  It is also a
    ``ValueError``, as argument errors are in Python."""


class EngineError(SddpkitError):
    """Hard failure inside the SDDP iteration loop."""


class InfeasibleSubproblemError(EngineError):
    """A stage subproblem was infeasible (relatively complete recourse violated)."""


class ResidualCheckError(EngineError):
    """A subproblem solution failed the post-solve feasibility residual check."""
