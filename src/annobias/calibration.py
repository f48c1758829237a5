"""Estimating the acceptance offset from proposal-guided annotation logs.

The offset is the probability of accepting a proposal with zero
ground-truth support.  Two estimators are provided: a banded estimator
that inverts the acceptance law on records whose proposal has mid-range
ground-truth mass, and a two-proposal estimator that needs no ground
truth at all — it annotates each image twice under two different
proposals and solves for the offset from the pair of acceptance rates.
"""

from __future__ import annotations

import statistics
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AnnotationSet, LabelDistribution

__all__ = [
    "STUDY_RESCALE",
    "CalibrationError",
    "AcceptanceRecord",
    "TwoProposalRecord",
    "delta_from_acceptance",
    "estimate_delta_banded",
    "estimate_delta_two_proposals",
    "two_proposal_candidates",
]

# Compensation factor for annotators who know the ground truth and
# under-accept proposals; apply only to records from such a study.
STUDY_RESCALE = 1.3

_EDGE_TOL = 1e-12


class CalibrationError(ValueError):
    """Offset estimation is impossible on the given records."""


@dataclass(frozen=True)
class AcceptanceRecord:
    """One proposal-guided annotation event with its ground truth."""

    image_id: str
    proposal: int
    annotated: int
    gt: LabelDistribution

    def __post_init__(self):
        object.__setattr__(self, "image_id", str(self.image_id))
        object.__setattr__(self, "proposal", int(self.proposal))
        object.__setattr__(self, "annotated", int(self.annotated))
        k = self.gt.num_classes
        for field in ("proposal", "annotated"):
            v = getattr(self, field)
            if not 0 <= v < k:
                raise ValueError(f"{field} {v} out of range for {k} classes")

    @property
    def accepted(self) -> bool:
        return self.annotated == self.proposal


@dataclass(frozen=True)
class TwoProposalRecord:
    """Two annotation rounds of one image under two distinct proposals."""

    image_id: str
    proposal_a: int
    proposal_b: int
    annotations_a: AnnotationSet
    annotations_b: AnnotationSet

    def __post_init__(self):
        object.__setattr__(self, "image_id", str(self.image_id))
        object.__setattr__(self, "proposal_a", int(self.proposal_a))
        object.__setattr__(self, "proposal_b", int(self.proposal_b))
        if self.proposal_a == self.proposal_b:
            raise ValueError("the two proposals must be distinct")
        k = self.annotations_a.num_classes
        if self.annotations_b.num_classes != k:
            raise ValueError("annotation rounds disagree on class count")
        for field in ("proposal_a", "proposal_b"):
            v = getattr(self, field)
            if not 0 <= v < k:
                raise ValueError(f"{field} {v} out of range for {k} classes")
        if self.annotations_a.total < 1 or self.annotations_b.total < 1:
            raise ValueError("each round needs at least one annotation")


def delta_from_acceptance(
    a: float, p_gt: float, upper_bound: float = 0.99
) -> float:
    """Invert the acceptance law for the offset: (A - ub*p) / (1 - p).

    Unclamped — callers clamp or aggregate.  Undefined at ``p_gt == 1``
    where every acceptance law yields the same rate.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"acceptance rate {a!r} outside [0, 1]")
    if not 0.0 <= p_gt <= 1.0:
        raise ValueError(f"ground-truth mass {p_gt!r} outside [0, 1]")
    if p_gt >= 1.0:
        raise CalibrationError(
            "offset undefined at ground-truth mass 1 (zero denominator)"
        )
    return (a - upper_bound * p_gt) / (1.0 - p_gt)


def _in_band(records: Sequence[AcceptanceRecord], lo: float, hi: float) -> list:
    """Records whose proposal mass lies in the band ``(lo, hi]``.

    Both edges sit ``_EDGE_TOL`` higher, so a mass that decimal round-off
    put a hair above ``hi`` still counts, and one a hair above ``lo`` not.
    """
    return [
        rec
        for rec in records
        if lo + _EDGE_TOL < rec.gt[rec.proposal] <= hi + _EDGE_TOL
    ]


def estimate_delta_banded(
    records: Sequence[AcceptanceRecord],
    band: tuple = (0.2, 0.4),
    n_target: int = 20,
    rescale: float = 1.0,
    aggregate: str = "mean",
    upper_bound: float = 0.99,
) -> float:
    """Offset estimate from records whose proposal mass lies in a band.

    Each in-band record contributes one inverted-law value (its acceptance
    indicator against its proposal mass); the values are aggregated,
    clamped to [0, 1], rescaled, and clamped again.  ``rescale`` defaults
    to 1.0 (unbiased records); pass :data:`STUDY_RESCALE` for records from
    annotators who knew the ground truth.
    Fewer than ``n_target`` distinct in-band images triggers a warning,
    no in-band records at all is an error.
    """
    lo, hi = float(band[0]), float(band[1])
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"invalid band {band!r}")
    if aggregate not in ("mean", "median"):
        raise ValueError(f"aggregate must be 'mean' or 'median', got {aggregate!r}")
    if rescale < 0.0:
        raise ValueError("rescale must be >= 0")

    in_band = _in_band(records, lo, hi)
    if not in_band:
        raise CalibrationError(
            f"insufficient calibration data: no records with proposal mass in "
            f"({lo}, {hi}]"
        )
    values = [
        delta_from_acceptance(
            1.0 if rec.accepted else 0.0, rec.gt[rec.proposal], upper_bound
        )
        for rec in in_band
    ]
    image_ids = {rec.image_id for rec in in_band}
    if len(image_ids) < n_target:
        warnings.warn(
            f"only {len(image_ids)} in-band images (target {n_target}); "
            f"estimate may be noisy",
            stacklevel=2,
        )
    agg = statistics.mean(values) if aggregate == "mean" else statistics.median(values)
    est = min(max(agg, 0.0), 1.0) * rescale
    return min(max(est, 0.0), 1.0)


def two_proposal_candidates(
    records: Sequence[TwoProposalRecord],
    upper_bound: float = 0.99,
) -> list:
    """Per-record raw offset candidates (may be non-finite; not filtered).

    For each record: an acceptance rate of 1 in the first round pins the
    ground truth to that proposal, so the second round's acceptance rate is
    the offset itself; a rate of 0 bounds the offset at 0 (the rate can
    never fall below it); symmetric conclusions apply when the second
    round is extreme.  Otherwise the probability that the true class
    differs from the first proposal is approximated from the second
    round's rejected annotations over the classes outside both proposals,
    and the acceptance law is inverted at the first round's rate.
    """
    candidates = []
    for rec in records:
        ca = np.asarray(rec.annotations_a.counts, dtype=np.float64)
        cb = np.asarray(rec.annotations_b.counts, dtype=np.float64)
        n_a, n_b = rec.annotations_a.total, rec.annotations_b.total
        rho_a, rho_b = rec.proposal_a, rec.proposal_b
        acc_a = ca[rho_a] / n_a
        acc_b = cb[rho_b] / n_b

        if acc_a == 1.0:
            candidates.append(acc_b)
            continue
        if acc_a == 0.0:
            candidates.append(0.0)
            continue
        if acc_b == 1.0:
            candidates.append(acc_a)
            continue
        if acc_b == 0.0:
            candidates.append(0.0)
            continue

        # rejected second-round annotations, renormalized
        c_prime = cb / (n_b - cb[rho_b])
        # pooled annotations from both rounds landing outside both proposals
        pooled = ca + cb
        pooled[rho_a] = 0.0
        pooled[rho_b] = 0.0
        outside_total = float(pooled.sum())
        if outside_total <= 0.0:
            candidates.append(float("nan"))
            continue
        e = pooled / outside_total

        # outside both proposals the joint correction term vanishes,
        # leaving the plain ratio of rejected share to outside share
        ratios = [
            c_prime[k] / e[k]
            for k in range(ca.size)
            if k not in (rho_a, rho_b) and e[k] > 0.0
        ]
        if not ratios:
            candidates.append(float("nan"))
            continue
        p_not_rho_a = float(np.mean(ratios))
        if p_not_rho_a <= 0.0:
            candidates.append(float("nan"))
            continue
        p_rho_a = 1.0 - p_not_rho_a
        candidates.append((acc_a - upper_bound * p_rho_a) / p_not_rho_a)
    return candidates


def _median_below(candidates: list, threshold: float) -> tuple:
    """Median of the finite candidates below ``threshold``, and those survivors."""
    if not candidates:
        raise CalibrationError("estimator degenerate: no records")
    survivors = [c for c in candidates if np.isfinite(c) and c < threshold]
    if not survivors:
        raise CalibrationError(
            f"estimator degenerate: no finite candidates below {threshold} "
            f"out of {len(candidates)} records"
        )
    return float(statistics.median(survivors)), survivors


def estimate_delta_two_proposals(
    records: Sequence[TwoProposalRecord],
    threshold: float = 0.8,
    upper_bound: float = 0.99,
) -> float:
    """Median of the per-record candidates below ``threshold``.

    Non-finite candidates (degenerate denominators) are dropped before the
    threshold filter; no survivors is an error — the estimator is known to
    be fragile and refusing beats guessing.
    """
    raw = two_proposal_candidates(records, upper_bound)
    return _median_below(raw, threshold)[0]
