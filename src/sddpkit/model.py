"""Multistage stochastic linear program data model.

A problem is a chain of standard-form stages

    min c_t . x_t   s.t.   A_t x_t = b_t - B_{t-1} x_{t-1},   x_t >= 0,

where the linking product ``B_{t-1} x_{t-1}`` (the post-decision resource
vector) enters the *first* ``resource_dims[t-1]`` rows of the stage-t
constraints.  Uncertainty over the stage data is either stagewise
independent or a discrete Markov chain over the per-stage outcome lists.
"""
from __future__ import annotations

import enum
import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import FormatVersionError, MalformedFileError, TooManyPaths

PROB_TOL = 1e-12

INSTANCE_FORMAT = "mslp-instance"
INSTANCE_VERSION = 1


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got ndim={arr.ndim}")
    return arr


def _as_vector(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True)
class StageRealization:
    """One realized tuple of stage data (constraint matrix, linking matrix,
    right-hand side, cost)."""

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, "B"))
        object.__setattr__(self, "b", _as_vector(self.b, "b"))
        object.__setattr__(self, "c", _as_vector(self.c, "c"))

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def n_cols(self) -> int:
        return self.A.shape[1]

    @property
    def resource_dim(self) -> int:
        return self.B.shape[0]

    def shape_violations(self, label: str) -> list[str]:
        out = []
        if self.b.shape[0] != self.A.shape[0]:
            out.append(
                f"{label}: rhs length {self.b.shape[0]} does not match "
                f"{self.A.shape[0]} constraint rows"
            )
        if self.c.shape[0] != self.A.shape[1]:
            out.append(
                f"{label}: cost length {self.c.shape[0]} does not match "
                f"{self.A.shape[1]} columns"
            )
        if self.B.shape[1] != self.A.shape[1]:
            out.append(
                f"{label}: linking matrix has {self.B.shape[1]} columns "
                f"but the stage has {self.A.shape[1]} variables"
            )
        for name, arr in (("A", self.A), ("B", self.B), ("b", self.b), ("c", self.c)):
            if arr.size and not np.all(np.isfinite(arr)):
                out.append(f"{label}: {name} contains non-finite entries")
        return out


class ProcessKind(enum.Enum):
    STAGEWISE_INDEPENDENT = "stagewise"
    MARKOV = "markov"


@dataclass(frozen=True)
class UncertaintyProcess:
    """Discrete uncertainty over stages t = 1..T.

    ``outcomes[t-1]`` lists the possible realizations at stage t.  For the
    stagewise-independent kind, ``probs[t-1]`` is the outcome distribution
    at stage t.  For the Markov kind, ``initial`` is the distribution of the
    stage-1 outcome and ``transitions[t-1]`` (t = 1..T-1) is the
    ``|Omega_t| x |Omega_{t+1}|`` transition matrix.
    """

    kind: ProcessKind
    outcomes: tuple[tuple[StageRealization, ...], ...]
    probs: tuple[np.ndarray, ...] | None = None
    initial: np.ndarray | None = None
    transitions: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "outcomes", tuple(tuple(stage) for stage in self.outcomes)
        )
        if self.probs is not None:
            object.__setattr__(
                self, "probs", tuple(_as_vector(p, "probs") for p in self.probs)
            )
        if self.initial is not None:
            object.__setattr__(self, "initial", _as_vector(self.initial, "initial"))
        if self.transitions is not None:
            object.__setattr__(
                self,
                "transitions",
                tuple(_as_matrix(P, "transition") for P in self.transitions),
            )

    @property
    def T(self) -> int:
        return len(self.outcomes)

    def n_outcomes(self, t: int) -> int:
        """Number of outcomes at stage t (1-based stage index)."""
        return len(self.outcomes[t - 1])

    def conditional_probs(self, t: int, info_index: int) -> np.ndarray:
        """Distribution of the stage-t outcome given the stage-(t-1)
        information state: for a Markov chain the stage-(t-1) outcome, not
        read at t = 1 (the root passes -1)."""
        if self.kind is ProcessKind.STAGEWISE_INDEPENDENT:
            assert self.probs is not None
            return self.probs[t - 1]
        if t == 1:
            assert self.initial is not None
            return self.initial
        assert self.transitions is not None
        return self.transitions[t - 2][info_index]

    def violations(self) -> list[str]:
        out = []
        T = self.T
        if T < 1:
            out.append("process has no stages")
            return out
        for t in range(1, T + 1):
            if self.n_outcomes(t) < 1:
                out.append(f"stage {t} has an empty outcome set")
        if self.kind is ProcessKind.STAGEWISE_INDEPENDENT:
            if self.probs is None:
                out.append("stagewise process is missing per-stage probabilities")
                return out
            if len(self.probs) != T:
                out.append(
                    f"expected {T} probability vectors, got {len(self.probs)}"
                )
                return out
            for t in range(1, T + 1):
                p = self.probs[t - 1]
                if p.shape[0] != self.n_outcomes(t):
                    out.append(
                        f"probability vector at stage {t} has length {p.shape[0]}, "
                        f"expected {self.n_outcomes(t)}"
                    )
                    continue
                out.extend(_prob_vector_violations(p, f"probs at stage {t}"))
        else:
            if self.initial is None:
                out.append("markov process is missing the initial distribution")
                return out
            if self.initial.shape[0] != self.n_outcomes(1):
                out.append(
                    f"initial distribution has length {self.initial.shape[0]}, "
                    f"expected {self.n_outcomes(1)}"
                )
            else:
                out.extend(_prob_vector_violations(self.initial, "initial distribution"))
            trans = self.transitions or ()
            if len(trans) != T - 1:
                out.append(f"expected {T - 1} transition matrices, got {len(trans)}")
                return out
            for t in range(1, T):
                P = trans[t - 1]
                want = (self.n_outcomes(t), self.n_outcomes(t + 1))
                if P.shape != want:
                    out.append(
                        f"transition matrix P_{t} has shape {P.shape}, expected {want}"
                    )
                    continue
                for i in range(P.shape[0]):
                    out.extend(
                        _prob_vector_violations(P[i], f"row {i} of P_{t}")
                    )
        return out


def _prob_vector_violations(p: np.ndarray, label: str) -> list[str]:
    out = []
    # Zero is allowed: an identity transition row is a valid chain.
    if np.any(p < 0.0):
        out.append(f"{label} contains a negative probability")
    total = float(np.sum(p))
    if abs(total - 1.0) > PROB_TOL:
        out.append(f"{label} sums to {total!r}")
    return out


@dataclass(frozen=True)
class MultistageProblem:
    """A T+1-epoch multistage stochastic linear program."""

    T: int
    stage0: StageRealization
    process: UncertaintyProcess
    resource_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "resource_dims", tuple(int(r) for r in self.resource_dims))

    def realization(self, t: int, outcome: int) -> StageRealization:
        """Stage data at epoch t; ``outcome`` is ignored at t = 0."""
        if t == 0:
            return self.stage0
        return self.process.outcomes[t - 1][outcome]



@dataclass(frozen=True)
class ScenarioPath:
    """One realization of the outcome process, as 0-based indices per stage."""

    indices: tuple[int, ...]
    probability: float

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate(problem: MultistageProblem) -> ValidationReport:
    """Check the structural invariants of a problem; returns all violations
    found rather than raising."""
    out: list[str] = []
    T = problem.T
    if T < 1:
        out.append("T must be at least 1")
        return ValidationReport(out)
    if problem.process.T != T:
        out.append(
            f"process covers {problem.process.T} stages, expected T = {T}"
        )
        return ValidationReport(out)
    if len(problem.resource_dims) != T:
        out.append(
            f"resource_dims has length {len(problem.resource_dims)}, expected {T}"
        )
        return ValidationReport(out)

    out.extend(problem.stage0.shape_violations("stage 0"))
    if problem.stage0.resource_dim != problem.resource_dims[0]:
        out.append(
            f"stage 0 linking matrix has {problem.stage0.resource_dim} rows, "
            f"expected resource dimension {problem.resource_dims[0]}"
        )

    for t in range(1, T + 1):
        stage = problem.process.outcomes[t - 1]
        ref = stage[0]
        for j, real in enumerate(stage):
            label = f"stage {t} outcome {j}"
            out.extend(real.shape_violations(label))
            if (real.A.shape, real.B.shape) != (ref.A.shape, ref.B.shape):
                out.append(f"{label}: shape differs from outcome 0 of the same stage")
        if t < T and ref.resource_dim != problem.resource_dims[t]:
            out.append(
                f"stage {t} linking matrix has {ref.resource_dim} rows, "
                f"expected resource dimension {problem.resource_dims[t]}"
            )
        # The previous stage's resource vector lands in the first rows here.
        r_prev = problem.resource_dims[t - 1]
        if ref.A.shape[0] < r_prev:
            out.append(
                f"stage {t} has {ref.A.shape[0]} rows but must receive a "
                f"{r_prev}-dimensional linking term"
            )

    out.extend(problem.process.violations())
    return ValidationReport(out)


def sample_path(problem: MultistageProblem, rng: np.random.Generator) -> ScenarioPath:
    """Draw one scenario path with exact process probabilities.

    Uses one uniform draw per stage (inverse transform on the cumulative
    distribution), so equal per-stage distributions consume the random
    stream identically for both process kinds.
    """
    proc = problem.process
    indices = []
    prob = 1.0
    info = 0
    for t in range(1, problem.T + 1):
        p = proc.conditional_probs(t, info)
        u = rng.random()
        j = int(np.searchsorted(np.cumsum(p), u, side="right"))
        j = min(j, p.shape[0] - 1)
        indices.append(j)
        prob *= float(p[j])
        info = j
    return ScenarioPath(tuple(indices), prob)


def enumerate_paths(problem: MultistageProblem, max_paths: int) -> list[ScenarioPath]:
    """All scenario paths with their probabilities."""
    proc = problem.process
    total = 1
    for t in range(1, problem.T + 1):
        total *= proc.n_outcomes(t)
        if total > max_paths:
            raise TooManyPaths(
                f"instance has more than {max_paths} scenario paths"
            )
    paths = []
    ranges = [range(proc.n_outcomes(t)) for t in range(1, problem.T + 1)]
    for combo in itertools.product(*ranges):
        prob = 1.0
        info = 0
        for t, j in enumerate(combo, start=1):
            prob *= float(proc.conditional_probs(t, info)[j])
            info = j
        if prob > 0.0:
            paths.append(ScenarioPath(combo, prob))
    return paths


# --- instance file format -------------------------------------------------

def matrix_to_obj(mat: np.ndarray) -> dict:
    """Dense row-major encoding with explicit dimensions (rows may be 0).
    ``data`` stays an array: ``write_json`` turns it into floats only while
    it writes it."""
    return {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "data": mat.ravel(order="C"),
    }


def _matrix_hook(obj: dict) -> dict:
    """``object_hook`` of the instance reader: the ``data`` list of a
    ``{rows, cols, data}`` object becomes an array as soon as the parser
    closes the object, so at most one matrix is held as Python floats.  A
    list that does not convert stays, for ``matrix_from_obj`` to reject."""
    if obj.keys() == {"rows", "cols", "data"} and type(obj["data"]) is list:
        try:
            obj["data"] = np.array(obj["data"], dtype=float)
        except (TypeError, ValueError, OverflowError):
            pass
    return obj


def matrix_from_obj(obj: dict) -> np.ndarray:
    """The matrix of a ``matrix_to_obj`` object; a wrong entry count raises
    ``ValueError``, which the file readers report with the file's name."""
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=float)
    if data.size != rows * cols:
        raise ValueError(
            f"matrix data has {data.size} entries, expected {rows}x{cols}"
        )
    return data.reshape(rows, cols)


def _realization_to_obj(real: StageRealization) -> dict:
    return {
        "A": matrix_to_obj(real.A),
        "B": matrix_to_obj(real.B),
        "b": real.b,
        "c": real.c,
    }


def _realization_from_obj(obj: dict) -> StageRealization:
    return StageRealization(
        A=matrix_from_obj(obj["A"]),
        B=matrix_from_obj(obj["B"]),
        b=np.array(obj["b"], dtype=float),
        c=np.array(obj["c"], dtype=float),
    )


def problem_to_obj(problem: MultistageProblem) -> dict:
    proc = problem.process
    proc_obj: dict = {
        "kind": proc.kind.value,
        "outcomes": [
            [_realization_to_obj(real) for real in stage] for stage in proc.outcomes
        ],
    }
    if proc.kind is ProcessKind.STAGEWISE_INDEPENDENT:
        proc_obj["probs"] = list(proc.probs)
    else:
        proc_obj["initial"] = proc.initial
        proc_obj["transitions"] = [matrix_to_obj(P) for P in proc.transitions]
    return {
        "T": problem.T,
        "resource_dims": list(problem.resource_dims),
        "stage0": _realization_to_obj(problem.stage0),
        "process": proc_obj,
    }


def problem_from_obj(obj: dict) -> MultistageProblem:
    proc_obj = obj["process"]
    kind = ProcessKind(proc_obj["kind"])
    outcomes = tuple(
        tuple(_realization_from_obj(o) for o in stage)
        for stage in proc_obj["outcomes"]
    )
    if kind is ProcessKind.STAGEWISE_INDEPENDENT:
        process = UncertaintyProcess(
            kind=kind,
            outcomes=outcomes,
            probs=tuple(np.array(p, dtype=float) for p in proc_obj["probs"]),
        )
    else:
        process = UncertaintyProcess(
            kind=kind,
            outcomes=outcomes,
            initial=np.array(proc_obj["initial"], dtype=float),
            transitions=tuple(
                matrix_from_obj(P) for P in proc_obj["transitions"]
            ),
        )
    return MultistageProblem(
        T=int(obj["T"]),
        stage0=_realization_from_obj(obj["stage0"]),
        process=process,
        resource_dims=tuple(int(r) for r in obj["resource_dims"]),
    )


def _scalar(value) -> str:
    """``json.dumps(value, allow_nan=False)``.  A finite float, an int or a
    string skips the encoder's set-up, which costs more than the text of a
    cut record's few numbers."""
    kind = type(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    return json.dumps(value, allow_nan=False)


@functools.cache
def _scalar_list(inner: str):
    """The C encoder's ``encode`` for a list of scalars at indent ``inner``
    (one per depth): its items come out separated by a newline and ``inner``."""
    return json.JSONEncoder(separators=(",\n" + inner, ": "), allow_nan=False).encode


_CONTAINERS = (dict, list, tuple, np.ndarray)


def _encode(write, obj, pad: str) -> None:
    """Write ``obj`` as ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False)`` writes it at indent ``pad``, an ``ndarray`` as its
    ``tolist()``.  Containers of containers recurse here; a list of scalars
    goes to the C encoder in one call.  An array becomes Python objects only
    here, just before it is written, so one at a time exists as such."""
    inner = pad + "  "
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict) and obj:
        for k, (key, value) in enumerate(sorted(obj.items())):
            if type(key) is str:
                key_text = encode_basestring_ascii(key)
            else:  # a one-entry dict gives the encoder's text for any key
                key_text = json.dumps({key: 0}, allow_nan=False)[1:-4]
            write(("," if k else "{") + "\n" + inner + key_text + ": ")
            _encode(write, value, inner)
        write("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        if any(issubclass(t, _CONTAINERS) for t in set(map(type, obj))):
            for k, item in enumerate(obj):
                write(("," if k else "[") + "\n" + inner)
                _encode(write, item, inner)
        else:
            write("[\n" + inner)
            write(_scalar_list(inner)(obj)[1:-1])
        write("\n" + pad + "]")
    else:
        write(_scalar(obj))


def write_json(path, fmt: str, version: int, body: dict) -> None:
    """Write ``body`` under a ``format``/``version`` header as the canonical
    text ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` plus
    a newline (sorted keys, two-space indent, shortest round-trip floats).

    The text is streamed to a temporary file beside ``path`` that then
    replaces it, so the whole text is never held in memory and a failed
    encode (NaN, a non-JSON type) leaves ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        f = open(tmp, "w", encoding="ascii")
    except OSError as exc:  # name the target, as a write in place would
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with f:
            _encode(f.write, {"format": fmt, "version": version, **body}, "")
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_json(path, what: str, from_obj, object_hook=None):
    """``from_obj(value)`` of the JSON value in ``path``, ``what`` naming
    its kind in errors: bad JSON, or a ``KeyError``, ``IndexError``,
    ``TypeError`` or ``ValueError`` from ``from_obj``, raises
    :class:`MalformedFileError` naming the file.  ``object_hook`` goes to
    the parser (``json.loads``)."""
    try:
        obj = json.loads(Path(path).read_text(), object_hook=object_hook)
    except json.JSONDecodeError as exc:
        raise MalformedFileError(f"cannot parse {what} file {path}: {exc}") from exc
    try:
        return from_obj(obj)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise MalformedFileError(f"{what} file {path} is malformed: {exc}") from exc


def read_json(path, fmt: str, version: int, what: str, from_obj, object_hook=None):
    """``from_obj(body)`` of a :func:`write_json` file, read through
    :func:`load_json`: a wrong header raises :class:`FormatVersionError`,
    and a non-object :class:`MalformedFileError`."""

    def from_file(body):
        if not isinstance(body, dict):
            raise MalformedFileError(f"{what} file {path} is not a JSON object")
        found = body.pop("format", None), body.pop("version", None)
        if found != (fmt, version):
            raise FormatVersionError(
                f"{what} file {path} has header {found!r}, expected {(fmt, version)!r}"
            )
        return from_obj(body)

    return load_json(path, what, from_file, object_hook)


def save_instance(problem: MultistageProblem, path) -> None:
    write_json(path, INSTANCE_FORMAT, INSTANCE_VERSION, problem_to_obj(problem))


def load_instance(path) -> MultistageProblem:
    """The instance in ``path``; its matrices are built while it is parsed
    (``_matrix_hook``)."""
    return read_json(
        path,
        INSTANCE_FORMAT,
        INSTANCE_VERSION,
        "instance",
        problem_from_obj,
        _matrix_hook,
    )
