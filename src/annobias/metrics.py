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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calibration import _EDGE_TOL, AcceptanceRecord
from .core import LabelDistribution
from .rng import substream
from .simulation import SimulationParams, Strategy, simulate_with_strategy

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
        c = np.array(self.cells, copy=True)
        if c.shape != (NUM_BINS, NUM_BINS):
            raise ValueError(f"cells must be {NUM_BINS}x{NUM_BINS}")
        if not np.issubdtype(c.dtype, np.integer):
            rounded = np.rint(np.asarray(c, dtype=np.float64))
            if not np.array_equal(rounded, np.asarray(c, dtype=np.float64)):
                raise ValueError("cell counts must be integers")
            c = rounded.astype(np.int64)
        c = c.astype(np.int64)
        if np.any(c < 0):
            raise ValueError("negative cell count")
        c.flags.writeable = False
        object.__setattr__(self, "cells", c)

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
        if not 0.0 <= self.initial_supervision <= 1.0:
            raise ValueError("initial_supervision must lie in [0, 1]")
        if not 0.0 <= self.pct_annotated <= 1.0:
            raise ValueError("pct_annotated must lie in [0, 1]")
        if self.annotations_per_image < 0.0:
            raise ValueError("annotations_per_image must be >= 0")
        if self.speedup < 1.0:
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
    if epsilon <= 0.0:
        raise ValueError("epsilon must be > 0")
    g = gt.probs
    e = np.maximum(est.probs, epsilon)
    mask = g > 0.0
    value = float(np.sum(g[mask] * np.log(g[mask] / e[mask])))
    return max(value, 0.0)


def bin_index(p: float) -> int:
    """Bin of a probability: 0 for exactly 0, else right-closed fifths."""
    p = float(p)
    if p < -_EDGE_TOL or p > 1.0 + _EDGE_TOL:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if p <= _EDGE_TOL:
        return 0
    for i, edge in enumerate(BIN_EDGES):
        if p <= edge + _EDGE_TOL:
            return i + 1
    return NUM_BINS - 1


def build_bin_matrix(records: Sequence[AcceptanceRecord]) -> BinMatrix:
    """Tally records by (proposed-class bin, annotated-class bin)."""
    if not records:
        raise ValueError("cannot build a bin matrix from zero records")
    cells = np.zeros((NUM_BINS, NUM_BINS), dtype=np.int64)
    for rec in records:
        row = bin_index(rec.gt[rec.proposal])
        col = bin_index(rec.gt[rec.annotated])
        cells[row, col] += 1
    return BinMatrix(cells)


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

    Each simulated draw uses a stream derived from (seed, image id,
    per-image record ordinal, repetition), so results are independent of
    record order across images.
    """
    if not records:
        raise ValueError("need at least one record")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    m_real = build_bin_matrix(records)

    ordinals = {}
    keyed = []
    for rec in records:
        ordinal = ordinals.get(rec.image_id, 0)
        ordinals[rec.image_id] = ordinal + 1
        keyed.append((rec, ordinal))

    sods = []
    for rep in range(repetitions):
        simulated = []
        for rec, ordinal in keyed:
            rng = substream(seed, "strategy-comparison", rec.image_id, ordinal, rep)
            annotated = simulate_with_strategy(
                strategy, rec.gt, rec.proposal, p, rng
            )
            simulated.append(
                AcceptanceRecord(rec.image_id, rec.proposal, annotated, rec.gt)
            )
        sods.append(sod(m_real, build_bin_matrix(simulated), normalized=True))

    mean = statistics.mean(sods)
    std = math.sqrt(statistics.mean((s - mean) ** 2 for s in sods))
    return StrategyComparison(strategy, tuple(sods), float(mean), float(std))


def aggregate_scores(values: Sequence[float], mode: str = "median") -> float:
    """Median (midpoint rule for even length) or mean of scores."""
    values = list(values)
    if not values:
        raise ValueError("cannot aggregate zero scores")
    if mode == "median":
        return float(statistics.median(values))
    if mode == "mean":
        return float(statistics.mean(values))
    raise ValueError(f"mode must be 'median' or 'mean', got {mode!r}")
