"""Shared domain types and elementary probability utilities.

Soft labels are probability vectors over a fixed set of classes; annotation
tallies, class-confusion rows, and per-dataset parameters are thin immutable
wrappers around numpy arrays.  Everything here is pure, and all types are
safe to share across threads once constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RENORMALIZE_TOL",
    "SUM_TOL",
    "DegenerateDistributionError",
    "LabelDistribution",
    "AnnotationSet",
    "TransitionMatrix",
    "DatasetMeta",
    "normalize",
    "soft_gt_from_annotations",
    "argmax_class",
    "sample_class",
]

# Deviation from a unit sum that is silently renormalized; anything worse is
# treated as corrupted input.  After construction |sum - 1| <= SUM_TOL holds.
RENORMALIZE_TOL = 1e-6
SUM_TOL = 1e-9


class DegenerateDistributionError(ValueError):
    """Input cannot represent a probability distribution."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class LabelDistribution:
    """Probability vector over ``K >= 2`` classes.

    Entries slightly off from a unit sum (up to ``RENORMALIZE_TOL``, e.g.
    decimal round-off read back from a file) are renormalized silently;
    larger deviations raise.  Vectors already within ``SUM_TOL`` are stored
    as given, so writing and re-reading a distribution is value-stable.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=np.float64, copy=True)
        if p.ndim != 1:
            raise DegenerateDistributionError("probabilities must form a 1-d vector")
        if p.size < 2:
            raise DegenerateDistributionError("need at least two classes")
        if not np.all(np.isfinite(p)):
            raise DegenerateDistributionError("non-finite probability entry")
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise DegenerateDistributionError("probability entry outside [0, 1]")
        total = float(p.sum())
        if abs(total - 1.0) > RENORMALIZE_TOL:
            raise DegenerateDistributionError(
                f"probabilities sum to {total!r}, not normalizable"
            )
        if abs(total - 1.0) > SUM_TOL:
            p = p / total
        np.clip(p, 0.0, 1.0, out=p)
        object.__setattr__(self, "probs", _readonly(p))

    @property
    def num_classes(self) -> int:
        return int(self.probs.size)

    def __len__(self) -> int:
        return self.num_classes

    def __getitem__(self, k: int) -> float:
        return float(self.probs[k])

    def allclose(self, other: "LabelDistribution", atol: float = 1e-12) -> bool:
        return self.num_classes == other.num_classes and bool(
            np.allclose(self.probs, other.probs, rtol=0.0, atol=atol)
        )


@dataclass(frozen=True, eq=False)
class AnnotationSet:
    """Tally of one-hot annotations for one image.

    ``counts[k]`` is how often class ``k`` was picked; ``total`` is the
    number of annotations and must equal ``sum(counts)``.
    """

    counts: np.ndarray
    total: int

    def __post_init__(self):
        c = np.array(self.counts, copy=True)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("counts must be a 1-d vector over >= 2 classes")
        if not np.issubdtype(c.dtype, np.integer):
            rounded = np.rint(np.asarray(c, dtype=np.float64))
            if not np.array_equal(rounded, np.asarray(c, dtype=np.float64)):
                raise ValueError("counts must be integers")
            c = rounded.astype(np.int64)
        c = c.astype(np.int64)
        if np.any(c < 0):
            raise ValueError("negative annotation count")
        if int(c.sum()) != int(self.total):
            raise ValueError(
                f"counts sum to {int(c.sum())} but total is {self.total}"
            )
        if int(self.total) < 0:
            raise ValueError("total must be non-negative")
        object.__setattr__(self, "counts", _readonly(c))
        object.__setattr__(self, "total", int(self.total))

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "AnnotationSet":
        c = np.asarray(counts, dtype=np.int64)
        return cls(c, int(c.sum()))

    @classmethod
    def tally(cls, classes: Iterable[int], num_classes: int) -> "AnnotationSet":
        c = np.bincount(np.fromiter(classes, dtype=np.int64), minlength=num_classes)
        if c.size > num_classes:
            raise ValueError("class index out of range")
        return cls(c, int(c.sum()))

    @property
    def num_classes(self) -> int:
        return int(self.counts.size)

    def __getitem__(self, k: int) -> int:
        return int(self.counts[k])


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Square class-confusion matrix.

    Row ``k`` is the probability distribution over annotated classes for
    images whose most likely class is ``k``.
    """

    rows: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("transition matrix must be square")
        validated = np.stack([LabelDistribution(row).probs for row in arr])
        object.__setattr__(self, "rows", _readonly(validated))

    @classmethod
    def from_rows(cls, rows, row_tol: float = RENORMALIZE_TOL) -> "TransitionMatrix":
        """Build from raw rows, renormalizing each within ``row_tol`` of 1.

        Published confusion tables are usually rounded to a few decimals, so
        loaders pass a looser tolerance here than the default.
        """
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("transition matrix must be square")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise DegenerateDistributionError("invalid transition row entry")
        sums = arr.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > row_tol)
        if bad.size:
            raise DegenerateDistributionError(
                f"transition row {int(bad[0])} sums to {float(sums[bad[0]])!r}"
            )
        return cls(arr / sums[:, None])

    @classmethod
    def identity(cls, num_classes: int) -> "TransitionMatrix":
        return cls(np.eye(num_classes))

    @property
    def num_classes(self) -> int:
        return int(self.rows.shape[0])

    def row(self, k: int) -> np.ndarray:
        return self.rows[k]


@dataclass(frozen=True)
class DatasetMeta:
    """Per-dataset labeling parameters and the class-name ordering.

    ``delta`` is the baseline probability of accepting a proposal regardless
    of its ground-truth support, ``upper_bound`` caps the acceptance
    probability below 1, and ``mu`` weights the per-image distribution when
    blending with a class-confusion row.
    """

    class_names: tuple
    delta: float = 0.1
    upper_bound: float = 0.99
    mu: float = 0.75

    def __post_init__(self):
        names = tuple(str(n) for n in self.class_names)
        if len(names) < 2:
            raise ValueError("need at least two classes")
        if len(set(names)) != len(names):
            raise ValueError("duplicate class names")
        object.__setattr__(self, "class_names", names)
        if not 0.0 <= self.delta < self.upper_bound:
            raise ValueError("delta must satisfy 0 <= delta < upper_bound")
        if not self.upper_bound < 1.0:
            raise ValueError("upper_bound must be < 1")
        if not 0.0 < self.upper_bound:
            raise ValueError("upper_bound must be > 0")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def index_of(self, name: str) -> int:
        try:
            return self.class_names.index(name)
        except ValueError:
            raise KeyError(f"unknown class name {name!r}") from None

    def name_of(self, index: int) -> str:
        if not 0 <= index < len(self.class_names):
            raise IndexError(f"class index {index} out of range")
        return self.class_names[index]


def normalize(counts) -> LabelDistribution:
    """Scale a non-negative vector to a probability distribution.

    Raises :class:`DegenerateDistributionError` for all-zero or negative
    input.
    """
    v = np.asarray(counts, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise DegenerateDistributionError("need a 1-d vector over >= 2 classes")
    if not np.all(np.isfinite(v)):
        raise DegenerateDistributionError("degenerate distribution: non-finite entry")
    if np.any(v < 0):
        raise DegenerateDistributionError("degenerate distribution: negative entry")
    total = float(v.sum())
    if total <= 0.0:
        raise DegenerateDistributionError("degenerate distribution: no mass")
    return LabelDistribution(v / total)


def soft_gt_from_annotations(a: AnnotationSet) -> LabelDistribution:
    """Average one-hot annotations into a soft label: ``counts / total``."""
    if a.total < 1:
        raise DegenerateDistributionError("no annotations to average")
    return LabelDistribution(a.counts / a.total)


def argmax_class(d) -> int:
    """Index of the heaviest class in a :class:`LabelDistribution` or any
    nonnegative weight vector; ties break toward the lowest index."""
    probs = d.probs if isinstance(d, LabelDistribution) else np.asarray(d, dtype=float)
    return int(np.argmax(probs))


def _check_proposal(num_classes: int, proposal) -> int:
    """``proposal`` as an int; IndexError unless it names one of the classes."""
    proposal = int(proposal)
    if not 0 <= proposal < num_classes:
        raise IndexError(
            f"proposal {proposal} out of range for {num_classes} classes"
        )
    return proposal


def _uniform_index(n: int, u):
    """Index in ``0..n-1`` for a uniform ``u`` (a float or an array of them)."""
    return np.minimum(np.asarray(u * n, dtype=np.int64), n - 1)


def _draw_class(probs: np.ndarray, u):
    """Class drawn from ``probs`` by inverse CDF, per uniform in ``u``.

    ``u`` is a float or an array of floats; the result has its shape.
    """
    idx = np.searchsorted(np.cumsum(probs), u, side="right")
    overflow = idx >= probs.size
    if not np.count_nonzero(overflow):
        return idx
    # float-dust guard: cumulative sum can fall a hair short of 1
    positive = np.flatnonzero(probs > 0)
    last = int(positive[-1]) if positive.size else probs.size - 1
    return np.where(overflow, last, idx)


def sample_class(d: LabelDistribution, rng: np.random.Generator) -> int:
    """Draw a class index with probability ``d[k]`` using one uniform."""
    return int(_draw_class(d.probs, rng.random()))
