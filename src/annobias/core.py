"""Shared domain types and elementary probability utilities.

Soft labels are probability vectors over a fixed set of classes; annotation
tallies, class-confusion rows, and per-dataset parameters are thin immutable
wrappers around numpy arrays.  Everything here is pure, and all types are
safe to share across threads once constructed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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
    arr.setflags(write=False)
    return arr


# values whose int64 mantissas are summed at once: 2**10 * (2**53 - 1) < 2**63
_MEAN_RUN = 1024


def _exact_mean(values) -> float:
    """Mean of a non-empty float sequence, bit-identical to ``statistics.mean``.

    Each value is ``mantissa * 2**exponent`` with an integer mantissa below
    2**53 (``np.frexp``); the mantissas are summed in int64 per exponent, in
    runs of at most ``_MEAN_RUN``, the sums joined into one exact integer and
    divided once, correctly rounded.  Like ``statistics.mean``, ``-0.0``
    averages to ``0.0`` and non-finite values give their float sum over n.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    finite = np.isfinite(x)
    if not finite.all():
        return sum(x[~finite].tolist()) / x.size
    mantissas, exponents = np.frexp(x)
    order = np.argsort(exponents)
    exponents = exponents[order].astype(np.int64) + 1073  # >= 0 for subnormals
    mantissas = np.ldexp(mantissas[order], 53).astype(np.int64)
    # a run starts where the exponent changes and every _MEAN_RUN values after
    index = np.arange(x.size)
    first = np.maximum.accumulate(np.where(np.diff(exponents, prepend=-1), index, 0))
    starts = np.flatnonzero((index - first) % _MEAN_RUN == 0)
    sums = np.add.reduceat(mantissas, starts).tolist()
    total = sum(s << e for s, e in zip(sums, exponents[starts].tolist()))
    return total / (x.size << (1073 + 53))


def _int_counts(c, noun: str) -> np.ndarray:
    """Read-only int64 copy of the tally ``c``; ValueError unless whole and >= 0."""
    c = np.asarray(c)
    if c.dtype.kind not in "ium":  # numpy's integer kinds, timedelta64 among them
        c = np.asarray(c, dtype=np.float64)
        if not np.array_equal(np.rint(c), c):
            raise ValueError(f"{noun} counts must be integers")
    c = c.astype(np.int64)
    if np.count_nonzero(c < 0):
        raise ValueError(f"negative {noun} count")
    return _readonly(c)


def _check_acceptance_law(delta: float, upper_bound: float) -> None:
    """ValueError unless ``0 <= delta < upper_bound < 1``."""
    if not 0.0 <= delta < upper_bound:
        raise ValueError("delta must satisfy 0 <= delta < upper_bound")
    if not upper_bound < 1.0:
        raise ValueError("upper_bound must be < 1")


def _check_unit(name: str, value: float) -> None:
    """ValueError unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")


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
        _validated_rows(p[None])
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


def _validated_rows(p: np.ndarray) -> np.ndarray:
    """Check every row of float64 ``p[N, K]`` as :class:`LabelDistribution` does.

    Raises the error of the first invalid row.  Otherwise rewrites ``p``
    in place to the rows as ``LabelDistribution`` stores them
    (renormalized when their sum is off by more than ``SUM_TOL``, then
    clipped to [0, 1]) and returns it.
    """
    totals = p.sum(axis=1)
    off = np.abs(totals - 1.0)
    # comparisons with NaN are false, so non-finite rows fail here too
    in_range = (p >= -1e-12) & (p <= 1.0 + 1e-12)
    good = in_range.all(axis=1) & (off <= RENORMALIZE_TOL)
    if np.count_nonzero(good) < good.size:
        i = int(good.argmin())
        if not np.isfinite(p[i]).all():
            raise DegenerateDistributionError("non-finite probability entry")
        if not in_range[i].all():
            raise DegenerateDistributionError("probability entry outside [0, 1]")
        raise DegenerateDistributionError(
            f"probabilities sum to {float(totals[i])!r}, not normalizable"
        )
    rescale = off > SUM_TOL
    if np.count_nonzero(rescale):
        p[rescale] /= totals[rescale, None]
    return p.clip(0.0, 1.0, out=p)


@dataclass(frozen=True, eq=False)
class AnnotationSet:
    """Tally of one-hot annotations for one image.

    ``counts[k]`` is how often class ``k`` was picked; ``total`` is the
    number of annotations, ``sum(counts)``.
    """

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("counts must be a 1-d vector over >= 2 classes")
        object.__setattr__(self, "counts", _int_counts(c, "annotation"))

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "AnnotationSet":
        return cls(counts)

    @classmethod
    def tally(cls, classes: Iterable[int], num_classes: int) -> "AnnotationSet":
        c = np.bincount(np.fromiter(classes, dtype=np.int64), minlength=num_classes)
        if c.size > num_classes:
            raise ValueError("class index out of range")
        return cls(c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

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
        if arr.shape[0] < 2:
            raise DegenerateDistributionError("need at least two classes")
        object.__setattr__(self, "rows", _readonly(_validated_rows(arr.copy())))

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
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise ValueError("duplicate class names")
        object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "_index", index)  # not a field: asdict skips it
        _check_acceptance_law(self.delta, self.upper_bound)
        _check_unit("mu", self.mu)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
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
    """``proposal`` as an int; TypeError unless integral, IndexError unless a class."""
    proposal = operator.index(proposal)
    if not 0 <= proposal < num_classes:
        raise IndexError(
            f"proposal {proposal} out of range for {num_classes} classes"
        )
    return proposal


def _check_proposals(num_classes: int, proposals) -> np.ndarray:
    """:func:`_check_proposal` of every entry, raising for the first bad one; int64."""
    proposals = np.asarray(proposals)
    if proposals.size and proposals.dtype.kind not in "iu":
        raise TypeError(f"proposals must be integers, not {proposals.dtype}")
    bad = (proposals < 0) | (proposals >= num_classes)
    if np.count_nonzero(bad):
        _check_proposal(num_classes, proposals[np.argmax(bad)])
    return proposals.astype(np.int64, copy=False)


def _uniform_index(n: int, u):
    """Index in ``0..n-1`` for a uniform ``u`` (a float or an array of them)."""
    return np.minimum(np.asarray(u * n, dtype=np.int64), n - 1)


def _draw_class(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Class drawn by inverse CDF from row ``i`` of ``probs[R, K]`` with ``u[i]``."""
    # entries at or below u in a nondecreasing cumsum: searchsorted "right"
    idx = (probs.cumsum(axis=1) <= u[:, None]).sum(axis=1)
    k = probs.shape[1]
    overflow = idx >= k
    if not np.count_nonzero(overflow):
        return idx
    # float-dust guard: cumulative sum can fall a hair short of 1; the
    # draw then takes the last class with mass (the last class if none)
    last = k - 1 - np.argmax(probs[:, ::-1] > 0, axis=1)
    return np.where(overflow, last, idx)


def sample_class(d: LabelDistribution, rng: np.random.Generator) -> int:
    """Draw a class index with probability ``d[k]`` using one uniform."""
    return int(_draw_class(d.probs[None], np.array([rng.random()]))[0])
