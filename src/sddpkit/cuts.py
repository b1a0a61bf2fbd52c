"""Piecewise-linear value function approximations as collections of cuts.

Each stage t < T keeps one cut list per post-decision information state
(a single list under stagewise independence).  A cut stores its intercept
*at the anchor point*, which keeps the constants that end up on subproblem
right-hand sides small even when slopes and anchors are large.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .model import ProcessKind, read_json, write_json
from .subproblem import SubproblemSpec

CUTS_FORMAT = "mslp-cuts"
CUTS_VERSION = 1


@dataclass(frozen=True)
class Cut:
    """Affine lower bound ``alpha + beta . (R - anchor)`` on a stage value
    function, recorded with the iteration that produced it."""

    alpha: float
    beta: np.ndarray
    anchor: np.ndarray
    born_iteration: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=float))
        object.__setattr__(self, "born_iteration", int(self.born_iteration))
        if self.beta.ndim != 1 or self.anchor.shape != self.beta.shape:
            raise DimensionMismatch("cut slope and anchor must be equal-length vectors")
        if not (
            np.isfinite(self.alpha)
            and np.all(np.isfinite(self.beta))
            and np.all(np.isfinite(self.anchor))
        ):
            raise ValueError("cut entries must be finite")

    @classmethod
    def _checked(cls, alpha: float, beta, anchor, born_iteration: int) -> "Cut":
        """A cut from entries the caller has already converted and checked,
        without running those checks again."""
        cut = object.__new__(cls)
        cut.__dict__.update(
            alpha=alpha, beta=beta, anchor=anchor, born_iteration=born_iteration
        )
        return cut

    def same_as(self, other: "Cut") -> bool:
        return (
            self.alpha == other.alpha
            and np.array_equal(self.beta, other.beta)
            and np.array_equal(self.anchor, other.anchor)
            and self.born_iteration == other.born_iteration
        )


@dataclass
class _Bucket:
    cuts: list[Cut] = field(default_factory=list)
    # Stacked slopes and offsets alpha - beta . anchor of ``cuts``: the
    # first len(cuts) rows of C-ordered buffers that double when full.  Those
    # rows are C-contiguous, so ``betas @ B`` over them rounds as over a
    # freshly stacked array, and each offset is the row's own einsum.
    _betas: np.ndarray | None = None
    _offsets: np.ndarray | None = None

    def add(self, cut: Cut) -> None:
        k = len(self.cuts)
        if self._betas is None or k == self._betas.shape[0]:
            betas = np.empty((max(8, 2 * k), cut.beta.shape[0]))
            offsets = np.empty(betas.shape[0])
            if k:
                betas[:k] = self._betas
                offsets[:k] = self._offsets
            self._betas, self._offsets = betas, offsets
        self._betas[k] = cut.beta
        self._offsets[k] = (
            cut.alpha - np.einsum("ij,ij->i", cut.beta[None], cut.anchor[None])[0]
        )
        self.cuts.append(cut)

    def fill(self, alphas, betas: np.ndarray, anchors: np.ndarray, born) -> None:
        """Load an empty bucket with one family of checked entries: row i of
        ``betas`` and ``anchors`` (C-ordered ``k x r`` arrays) with
        ``alphas[i]`` and ``born[i]``.  The offsets come from one einsum over
        the family, which rounds each row as ``add`` does."""
        self._betas = betas
        self._offsets = alphas - np.einsum("ij,ij->i", betas, anchors)
        self.cuts = [
            Cut._checked(a, beta, anchor, k)
            for a, beta, anchor, k in zip(alphas.tolist(), betas, anchors, born)
        ]

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """Slopes and offsets of a bucket that holds at least one cut."""
        k = len(self.cuts)
        return self._betas[:k], self._offsets[:k]


class CutPool:
    """Append-only cut storage keyed by stage and information state."""

    def __init__(self, resource_dims, n_info):
        self.resource_dims = tuple(int(r) for r in resource_dims)
        self.n_info = tuple(int(k) for k in n_info)
        if len(self.n_info) != len(self.resource_dims):
            raise DimensionMismatch("n_info and resource_dims must align per stage")
        self._buckets = [
            [_Bucket() for _ in range(k)] for k in self.n_info
        ]

    @classmethod
    def for_problem(cls, problem) -> "CutPool":
        """Empty pool laid out by the process kind of ``problem``: one family
        per outcome (Markov information state) at the stages 1..T-1 of a
        Markov chain, one family elsewhere and under stagewise independence."""
        markov = problem.process.kind is ProcessKind.MARKOV
        return cls(
            resource_dims=problem.resource_dims,
            n_info=tuple(
                problem.process.n_outcomes(t) if (markov and t >= 1) else 1
                for t in range(problem.T)
            ),
        )

    @property
    def n_stages(self) -> int:
        return len(self.resource_dims)

    def info_index(self, t: int, outcome: int) -> int:
        """Family that holds the cuts for stage t after ``outcome``: the
        outcome itself where the stage keeps one family per outcome, 0
        elsewhere (including t = T, which keeps no family)."""
        return outcome if t < self.n_stages and self.n_info[t] > 1 else 0

    def cuts_at(self, t: int, info_index: int) -> list[Cut]:
        return self._buckets[t][info_index].cuts

    def n_cuts(self, t: int, info_index: int) -> int:
        return len(self._buckets[t][info_index].cuts)

    def total_cuts(self) -> int:
        return sum(len(b.cuts) for stage in self._buckets for b in stage)

    def iter_cuts(self):
        for t, stage in enumerate(self._buckets):
            for info, bucket in enumerate(stage):
                for cut in bucket.cuts:
                    yield t, info, cut

    def _check_family(self, t: int, info_index: int) -> None:
        if not (0 <= t < self.n_stages and 0 <= info_index < self.n_info[t]):
            raise DimensionMismatch(
                f"no cut family {info_index} at stage {t}: the pool has "
                f"families {list(self.n_info)} at stages 0..{self.n_stages - 1}"
            )

    def add_cut(self, t: int, info_index: int, cut: Cut) -> None:
        self._check_family(t, info_index)
        if cut.beta.shape[0] != self.resource_dims[t]:
            raise DimensionMismatch(
                f"cut slope has dimension {cut.beta.shape[0]}, stage {t} "
                f"expects {self.resource_dims[t]}"
            )
        self._buckets[t][info_index].add(cut)

    def values(self, t: int, info_index: int, R) -> np.ndarray | None:
        """Each cut's value at R, in the family's order, from the stacked
        ``offsets + betas @ R``; ``None`` when the family is empty."""
        R = np.asarray(R, dtype=float)
        if R.shape != (self.resource_dims[t],):
            raise DimensionMismatch(
                f"R has shape {R.shape}, stage {t} expects ({self.resource_dims[t]},)"
            )
        bucket = self._buckets[t][info_index]
        if not bucket.cuts:
            return None
        betas, offsets = bucket.stacked()
        return offsets + betas @ R

    def evaluate(self, t: int, info_index: int, R) -> float | None:
        """Max over cuts at R; ``None`` when the collection is empty (the
        callers then omit the future-value term entirely)."""
        values = self.values(t, info_index, R)
        return None if values is None else float(values.max())

    def embed(
        self, t: int, info_index: int, stage_spec: SubproblemSpec, B: np.ndarray
    ) -> SubproblemSpec:
        """Augment a stage spec with the epigraph variable and one equality
        row per cut.

        Column layout of the result: the stage's own variables, then
        theta+ and theta-, then one surplus slack per cut.  With no cuts the
        spec is returned unchanged (the empty approximation contributes no
        term).
        """
        if stage_spec.quad is not None:
            raise ValueError("embed expects an unregularized stage spec")
        bucket = self._buckets[t][info_index]
        k = len(bucket.cuts)
        if k == 0:
            return stage_spec
        B = np.asarray(B, dtype=float)
        r = self.resource_dims[t]
        if B.shape[0] != r:
            raise DimensionMismatch(
                f"linking matrix has {B.shape[0]} rows, stage {t} expects {r}"
            )
        m, n = stage_spec.A.shape
        if B.shape[1] != n:
            raise DimensionMismatch(
                f"linking matrix has {B.shape[1]} columns, stage has {n} variables"
            )
        betas, offsets = bucket.stacked()
        slopes = betas @ B  # k x n

        A_aug = np.zeros((m + k, n + 2 + k))
        A_aug[:m, :n] = stage_spec.A
        A_aug[m:, :n] = -slopes
        A_aug[m:, n] = 1.0
        A_aug[m:, n + 1] = -1.0
        A_aug[m + np.arange(k), n + 2 + np.arange(k)] = -1.0

        rhs_aug = np.concatenate([stage_spec.rhs, offsets])
        c_aug = np.concatenate([stage_spec.c, [1.0, -1.0], np.zeros(k)])
        return SubproblemSpec(c=c_aug, A=A_aug, rhs=rhs_aug)

    def same_as(self, other: "CutPool") -> bool:
        if (
            self.resource_dims != other.resource_dims
            or self.n_info != other.n_info
        ):
            return False
        for t in range(self.n_stages):
            for i in range(self.n_info[t]):
                mine = self.cuts_at(t, i)
                theirs = other.cuts_at(t, i)
                if len(mine) != len(theirs):
                    return False
                if not all(a.same_as(b) for a, b in zip(mine, theirs)):
                    return False
        return True

    # --- cut file format ---------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "resource_dims": list(self.resource_dims),
            "n_info": list(self.n_info),
            "cuts": [
                {
                    "t": t,
                    "info": info,
                    "alpha": cut.alpha,
                    "beta": cut.beta.tolist(),
                    "anchor": cut.anchor.tolist(),
                    "born_iteration": cut.born_iteration,
                }
                for t, info, cut in self.iter_cuts()
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "CutPool":
        """The pool of a ``to_obj`` object, loaded one family at a time: one
        array each of intercepts, slopes and anchors per (stage, information
        state), checked as a whole.  A family that fails those checks is
        loaded cut by cut, which raises the error of its first bad cut."""
        pool = cls(resource_dims=obj["resource_dims"], n_info=obj["n_info"])
        families: dict = {}
        for rec in obj["cuts"]:
            families.setdefault((int(rec["t"]), int(rec["info"])), []).append(rec)
        for (t, info), recs in families.items():
            pool._check_family(t, info)
            try:
                alphas = np.array([rec["alpha"] for rec in recs], dtype=float)
                betas = np.array([rec["beta"] for rec in recs], dtype=float)
                anchors = np.array([rec["anchor"] for rec in recs], dtype=float)
                born = [int(rec["born_iteration"]) for rec in recs]
            except (TypeError, ValueError, OverflowError):
                alphas = None
            if (
                alphas is not None
                and alphas.shape == (len(recs),)
                and betas.shape == anchors.shape == (len(recs), pool.resource_dims[t])
                and np.isfinite(alphas).all()
                and np.isfinite(betas).all()
                and np.isfinite(anchors).all()
            ):
                pool._buckets[t][info].fill(alphas, betas, anchors, born)
                continue
            for rec in recs:
                pool.add_cut(
                    t,
                    info,
                    Cut(
                        alpha=rec["alpha"],
                        beta=np.array(rec["beta"], dtype=float),
                        anchor=np.array(rec["anchor"], dtype=float),
                        born_iteration=rec["born_iteration"],
                    ),
                )
        return pool

    def save(self, path) -> None:
        write_json(path, CUTS_FORMAT, CUTS_VERSION, self.to_obj())


def load_cuts(path) -> CutPool:
    return read_json(path, CUTS_FORMAT, CUTS_VERSION, "cut", CutPool.from_obj)


def save_cuts(pool: CutPool, path) -> None:
    pool.save(path)
