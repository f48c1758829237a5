"""Label-quality metrics and annotation-cost accounting.

Covers divergence of estimated from true soft labels, binned comparison of
annotation behavior (how often the proposed and chosen classes fall into
each ground-truth-probability range), the half-sum-of-differences distance
between such bin matrices, strategy comparison built on that distance, and
a simple budget model for proposal-assisted annotation campaigns.
"""

from __future__ import annotations

import math
import statistics
import warnings
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from typing import Sequence

import numpy as np

from .calibration import _EDGE_TOL, AcceptanceRecord, _interval_index
from .core import LabelDistribution, _check_unit, _exact_mean, _int_counts
from .rng import uniforms
from .simulation import (
    _MAX_UNIFORMS_PER_DRAW,
    SimulationParams,
    Strategy,
    _draw_classes,
)

__all__ = [
    "BIN_EDGES",
    "NUM_BINS",
    "BinMatrix",
    "BudgetParams",
    "StrategyComparison",
    "kl_divergence",
    "bin_index",
    "build_bin_matrix",
    "sod",
    "budget",
    "compare_strategies",
    "aggregate_scores",
]

# Right-closed probability bins: a zero-probability bin, then five of width
# 0.2.  BIN_EDGES are the upper edges of bins 1..5.
BIN_EDGES = (0.2, 0.4, 0.6, 0.8, 1.0)
NUM_BINS = len(BIN_EDGES) + 1


@dataclass(frozen=True, eq=False)
class BinMatrix:
    """6x6 tally of (proposed-class bin, annotated-class bin) pairs."""

    cells: np.ndarray

    def __post_init__(self):
        if np.shape(self.cells) != (NUM_BINS, NUM_BINS):
            raise ValueError(f"cells must be {NUM_BINS}x{NUM_BINS}")
        object.__setattr__(self, "cells", _int_counts(self.cells, "cell"))

    @property
    def total(self) -> int:
        return int(self.cells.sum())

    def row_normalized(self) -> np.ndarray:
        """Rows scaled to sum to 1 for display; empty rows stay zero."""
        out = self.cells.astype(np.float64)
        sums = out.sum(axis=1, keepdims=True)
        np.divide(out, sums, out=out, where=sums > 0)
        return out


@dataclass(frozen=True)
class BudgetParams:
    """Inputs of the annotation-cost model.

    ``initial_supervision``: fraction of images given one unassisted
    annotation up front.  ``pct_annotated``: fraction of images receiving
    proposal-assisted annotations.  ``annotations_per_image``: how many per
    such image.  ``speedup``: cost discount of an assisted annotation
    relative to an unassisted one.
    """

    initial_supervision: float
    pct_annotated: float
    annotations_per_image: float
    speedup: float

    def __post_init__(self):
        _check_unit("initial_supervision", self.initial_supervision)
        _check_unit("pct_annotated", self.pct_annotated)
        if not self.annotations_per_image >= 0.0:
            raise ValueError("annotations_per_image must be >= 0")
        if not self.speedup >= 1.0:
            raise ValueError("speedup must be >= 1")


def kl_divergence(
    gt: LabelDistribution, est: LabelDistribution, epsilon: float = 1e-8
) -> float:
    """Divergence of the estimate from the true distribution.

    Sum over classes of ``gt * ln(gt / max(est, epsilon))``; zero-mass
    true classes contribute nothing.  The floor keeps empty estimate
    classes finite; the result is clamped at 0 so the floor's slight mass
    inflation can never report a negative divergence.
    """
    if gt.num_classes != est.num_classes:
        raise ValueError(
            f"class counts differ: {gt.num_classes} vs {est.num_classes}"
        )
    if not epsilon > 0.0:
        raise ValueError("epsilon must be > 0")
    return float(_kl_rows(gt.probs[None], est.probs[None], epsilon)[0])


def _kl_rows(g: np.ndarray, est: np.ndarray, epsilon: float = 1e-8) -> np.ndarray:
    """:func:`kl_divergence` of every row pair of ``g[N, K]`` and ``est[N, K]``.

    Each row sums its supported classes as one contiguous vector, as the
    one-row form does, so rows with the same number of supported classes
    are summed together.
    """
    e = np.maximum(est, epsilon)
    support = g > 0.0
    widths = support.sum(axis=1)
    out = np.empty(len(g))
    for width in np.flatnonzero(np.bincount(widths)):
        rows = np.flatnonzero(widths == width)[:, None]
        cols = np.nonzero(support[rows[:, 0]])[1].reshape(rows.size, width)
        gs = g[rows, cols]
        out[rows[:, 0]] = (gs * np.log(gs / e[rows, cols])).sum(axis=1)
    return np.maximum(out, 0.0)


def _l1_rows(g: np.ndarray, est: np.ndarray) -> np.ndarray:
    return np.abs(g - est).sum(axis=1)


# metric name -> score of every row pair (true rows, estimated rows)
_METRIC_ROWS = {
    "kl": _kl_rows,
    "l1": _l1_rows,
}


def bin_index(p: float) -> int:
    """Bin of a probability: 0 for exactly 0, else right-closed fifths."""
    return int(_bins(float(p)))


def _bins(p) -> np.ndarray:
    """:func:`bin_index` of every value in ``p``."""
    p = np.asarray(p, dtype=np.float64)
    # comparisons with NaN are false, so NaN fails here too
    bad = ~((p >= -_EDGE_TOL) & (p <= 1.0 + _EDGE_TOL))
    if bad.any():
        raise ValueError(f"probability {float(p.flat[bad.argmax()])!r} outside [0, 1]")
    return _interval_index(p, (0.0, *BIN_EDGES))


def build_bin_matrix(records: Sequence[AcceptanceRecord]) -> BinMatrix:
    """Tally records by (proposed-class bin, annotated-class bin)."""
    if not records:
        raise ValueError("cannot build a bin matrix from zero records")
    groups = _columns(records)[1]
    cells = sum(_bin_cells(_bins(probs), *classes) for _, probs, *classes in groups)
    return BinMatrix(cells.reshape(NUM_BINS, NUM_BINS))


def _bin_cells(bins: np.ndarray, proposals, annotated) -> np.ndarray:
    """Flat (proposed-class bin, annotated-class bin) tally of rows ``bins[m, K]``."""
    rows = np.arange(len(bins))
    pairs = NUM_BINS * bins[rows, proposals] + bins[rows, annotated]
    return np.bincount(pairs, minlength=NUM_BINS * NUM_BINS)


def _columns(records: Sequence[AcceptanceRecord]):
    """Records as :func:`_compare` reads them: their image ids, and per class
    count one group ``(index, probs[m, K], proposals[m], annotated[m])``."""
    rows = [(rec.gt.num_classes, rec.proposal, rec.annotated) for rec in records]
    sizes, proposals, annotated = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    groups = [np.flatnonzero(sizes == k) for k in np.flatnonzero(np.bincount(sizes))]
    return [rec.image_id for rec in records], [
        (i, np.stack([records[j].gt.probs for j in i]), proposals[i], annotated[i])
        for i in groups
    ]


def sod(m_r: BinMatrix, m_s: BinMatrix, normalized: bool = False) -> float:
    """Half the elementwise absolute difference of two bin matrices.

    For equal totals this counts the records binned differently.  The
    normalized variant divides by the first matrix's total.
    """
    if m_r.total != m_s.total:
        warnings.warn(
            f"bin matrices tally different record counts "
            f"({m_r.total} vs {m_s.total}); the distance loses its "
            f"moved-records reading",
            stacklevel=2,
        )
    value = 0.5 * float(np.abs(m_r.cells - m_s.cells).sum())
    if not normalized:
        return value
    if m_r.total == 0:
        raise ValueError("cannot normalize by an empty reference matrix")
    return value / m_r.total


def budget(p: BudgetParams) -> float:
    """Normalized annotation cost of a campaign.

    Unassisted up-front annotations count full price; assisted ones are
    discounted by the speedup.
    """
    return (
        p.initial_supervision
        + p.pct_annotated * p.annotations_per_image / p.speedup
    )


@dataclass(frozen=True)
class StrategyComparison:
    """Normalized-SOD summary of one strategy across repetitions."""

    strategy: Strategy
    sods: tuple
    mean: float
    std: float


def compare_strategies(
    records: Sequence[AcceptanceRecord],
    strategy: Strategy,
    p: SimulationParams,
    repetitions: int = 3,
    *,
    seed: int,
) -> StrategyComparison:
    """Distance between real and strategy-simulated annotation behavior.

    Per repetition, every real record is re-annotated once by the
    strategy (equal totals keep the distance interpretable), the two bin
    matrices are compared, and the normalized distances are summarized as
    mean and population standard deviation.

    Each simulated draw reads the stream keyed (seed, "strategy-comparison",
    image id, per-image record ordinal, repetition), so results are
    independent of record order across images.  All streams are derived
    in one batch from those key columns (:func:`~annobias.rng.uniforms`),
    bit-identical to one :func:`~annobias.rng.substream` per draw.
    """
    return _compare(*_columns(records), (strategy,), p, repetitions, seed)[0]


def _compare(ids, groups, strategies, p, repetitions, seed) -> list:
    """:func:`compare_strategies` of each of ``strategies``, in order, on the
    records' image ``ids`` and their ``groups`` as :func:`_columns` makes them.

    The streams do not depend on the strategy, so they are derived once,
    and so is the real log's bin matrix.
    """
    if not ids:
        raise ValueError("need at least one record")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")

    counters = defaultdict(count)  # image id -> its records so far
    ordinals = np.fromiter((next(counters[i]) for i in ids), np.int64, len(ids))
    # row rep * len(ids) + i is record i's stream in repetition rep
    reps = np.arange(repetitions).repeat(len(ids))
    columns = ("strategy-comparison", ids * repetitions, np.tile(ordinals, repetitions), reps)
    draws = uniforms(seed, columns, _MAX_UNIFORMS_PER_DRAW)

    # every repetition re-annotates every record once; records with the
    # same class count run through the engine together
    real = np.zeros(NUM_BINS * NUM_BINS, np.int64)
    cells = np.zeros((len(strategies), repetitions, NUM_BINS * NUM_BINS), np.int64)
    for index, probs, proposals, annotated in groups:
        rep_probs = np.tile(probs, (repetitions, 1))
        rep_proposals = np.tile(proposals, repetitions)
        rep_draws = draws[(len(ids) * np.arange(repetitions)[:, None] + index).ravel()]
        bins = _bins(probs)
        real += _bin_cells(bins, proposals, annotated)
        for strategy, counts in zip(strategies, cells):
            drawn = _draw_classes(strategy, rep_probs, rep_proposals, 1, p, rep_draws)
            drawn = drawn.reshape(repetitions, -1)
            counts += [_bin_cells(bins, proposals, classes) for classes in drawn]

    m_real = BinMatrix(real.reshape(NUM_BINS, NUM_BINS))
    out = []
    for strategy, counts in zip(strategies, cells):
        sods = [
            sod(m_real, BinMatrix(c.reshape(NUM_BINS, NUM_BINS)), normalized=True)
            for c in counts
        ]
        mean = _exact_mean(sods)
        std = math.sqrt(_exact_mean([(s - mean) ** 2 for s in sods]))
        out.append(StrategyComparison(strategy, tuple(sods), mean, std))
    return out


def aggregate_scores(values: Sequence[float], mode: str = "median") -> float:
    """Median (midpoint rule for even length) or exact mean of scores."""
    values = list(values)
    if not values:
        raise ValueError("cannot aggregate zero scores")
    if mode == "median":
        return float(statistics.median(values))
    if mode == "mean":
        return _exact_mean(values)
    raise ValueError(f"mode must be 'median' or 'mean', got {mode!r}")
