"""Estimating the acceptance offset from proposal-guided annotation logs.

The offset is the probability of accepting a proposal with zero
ground-truth support.  Two estimators are provided: a banded estimator
that inverts the acceptance law on records whose proposal has mid-range
ground-truth mass, and a two-proposal estimator that needs no ground
truth at all — it annotates each image twice under two different
proposals and solves for the offset from the pair of acceptance rates.
"""

from __future__ import annotations

import operator
import statistics
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LabelDistribution, _exact_mean

__all__ = [
    "STUDY_RESCALE",
    "CalibrationError",
    "AcceptanceRecord",
    "delta_from_acceptance",
    "estimate_delta_banded",
    "estimate_delta_two_proposals",
    "two_proposal_candidates",
]

# Compensation factor for annotators who know the ground truth and
# under-accept proposals; apply only to records from such a study.
STUDY_RESCALE = 1.3

_EDGE_TOL = 1e-12


def _interval_index(p, edges) -> np.ndarray:
    """``i`` with ``edges[i-1] < p <= edges[i]`` for each ``p``.  Every edge sits
    ``_EDGE_TOL`` higher, so decimal round-off a hair above an edge stays below."""
    return np.searchsorted(np.asarray(edges, dtype=np.float64) + _EDGE_TOL, p)


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
        object.__setattr__(self, "proposal", operator.index(self.proposal))
        object.__setattr__(self, "annotated", operator.index(self.annotated))
        k = self.gt.num_classes
        for field in ("proposal", "annotated"):
            v = getattr(self, field)
            if not 0 <= v < k:
                raise ValueError(f"{field} {v} out of range for {k} classes")

    @property
    def accepted(self) -> bool:
        return self.annotated == self.proposal


def delta_from_acceptance(
    a: float, p_gt: float, upper_bound: float = 0.99
) -> float:
    """Invert the acceptance law for the offset: (A - ub*p) / (1 - p).

    Unclamped — callers clamp or aggregate.  Undefined at ``p_gt == 1``
    where every acceptance law yields the same rate.  Elementwise when
    ``a`` and ``p_gt`` are arrays.
    """
    if not np.all((0.0 <= a) & (a <= 1.0)):
        raise ValueError(f"acceptance rate {a!r} outside [0, 1]")
    if not np.all((0.0 <= p_gt) & (p_gt <= 1.0)):
        raise ValueError(f"ground-truth mass {p_gt!r} outside [0, 1]")
    if np.any(p_gt >= 1.0):
        raise CalibrationError(
            "offset undefined at ground-truth mass 1 (zero denominator)"
        )
    return (a - upper_bound * p_gt) / (1.0 - p_gt)


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
    masses = np.array([r.gt.probs[r.proposal] for r in records], dtype=np.float64)
    accepted = np.array([r.accepted for r in records], dtype=bool)
    args = band, n_target, rescale, aggregate, upper_bound
    return _fit_banded(masses, accepted, [r.image_id for r in records], *args)[0]


def _fit_banded(masses, accepted, keys, band, n_target, rescale, aggregate, ub):
    """:func:`estimate_delta_banded` of the records with proposal ``masses``,
    ``accepted`` flags and image ``keys``, and the in-band rows and set of
    keys it used."""
    lo, hi = float(band[0]), float(band[1])
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"invalid band {band!r}")
    if aggregate not in ("mean", "median"):
        raise ValueError(f"aggregate must be 'mean' or 'median', got {aggregate!r}")
    if not 0.0 <= rescale < np.inf:
        raise ValueError("rescale must be a finite number >= 0")

    inside = np.flatnonzero(_interval_index(masses, (lo, hi)) == 1)
    if not inside.size:
        raise CalibrationError(
            f"insufficient calibration data: no records with proposal mass in "
            f"({lo}, {hi}]"
        )
    values = delta_from_acceptance(accepted[inside], masses[inside], ub).tolist()
    images = {keys[i] for i in inside.tolist()}
    if len(images) < n_target:
        warnings.warn(
            f"only {len(images)} in-band images (target {n_target}); "
            f"estimate may be noisy",
            stacklevel=3,
        )
    agg = _exact_mean(values) if aggregate == "mean" else statistics.median(values)
    est = min(max(agg, 0.0), 1.0) * rescale
    return min(max(est, 0.0), 1.0), inside, images


def two_proposal_candidates(entries, upper_bound: float = 0.99) -> list:
    """Raw offset candidates (may be non-finite; not filtered), one per image
    of a two-round log, in order of first appearance.

    ``entries`` are the log's ``(image_id, proposal, annotated)`` rows, such
    as :class:`~annobias.harness.formats.LogEntry`; class indices are
    integers >= 0.  Every image must appear with exactly two distinct
    proposals, and its rounds are ordered by first appearance.

    For each image: an acceptance rate of 1 in the first round pins the
    ground truth to that proposal, so the second round's acceptance rate is
    the offset itself; a rate of 0 bounds the offset at 0 (the rate can
    never fall below it); symmetric conclusions apply when the second
    round is extreme.  Otherwise the probability that the true class
    differs from the first proposal is approximated from the second
    round's rejected annotations over the classes outside both proposals,
    and the acceptance law is inverted at the first round's rate.
    """
    ids, proposals, annotated = list(zip(*entries)) or ((), (), ())
    proposals, annotated = (
        np.array(list(map(operator.index, c)), np.int64) for c in (proposals, annotated)
    )
    if (proposals < 0).any() or (annotated < 0).any():
        raise ValueError("class indices must be >= 0")
    return _two_proposal_rows(ids, proposals, annotated, upper_bound).tolist()


def _two_proposal_rows(ids, proposals, annotated, upper_bound) -> np.ndarray:
    """:func:`two_proposal_candidates` of the log rows with image ``ids`` and
    class columns ``proposals`` and ``annotated`` (``int64[N]``, >= 0)."""
    index = {}
    image = np.array([index.setdefault(j, len(index)) for j in ids], np.int64)
    k = int(max(proposals.max(initial=0), annotated.max(initial=0))) + 1
    keys, first, key_of_row = np.unique(
        image * k + proposals, return_index=True, return_inverse=True
    )
    n = np.bincount(keys // k, minlength=len(index))
    if (n != 2).any():
        i = int(np.argmax(n != 2))
        raise CalibrationError(
            f"image {list(index)[i]!r} has {n[i]} distinct proposals "
            f"in the log; the two-round protocol needs exactly 2"
        )
    # slot 2m + r holds round r of image m, rounds in order of first
    # appearance; the swap is its own inverse, so it also maps slots to keys
    slot = np.arange(keys.size) ^ (first[0::2] > first[1::2]).repeat(2)
    rho = (keys % k)[slot].reshape(-1, 2)
    counts = np.bincount(slot[key_of_row] * k + annotated, minlength=keys.size * k)
    counts = counts.reshape(-1, 2, k).astype(np.float64)
    rows = np.arange(len(rho))[:, None]
    accepted = counts[rows, [0, 1], rho]
    totals = counts.sum(axis=2)
    acc = accepted / totals
    # rejected second-round annotations, and the pooled annotations from
    # both rounds landing outside both proposals
    rejected_b = totals[:, 1:] - accepted[:, 1:]
    pooled = counts.sum(axis=1)
    pooled[rows, rho] = 0.0
    outside = pooled.sum(axis=1, keepdims=True)
    used = pooled > 0.0
    widths = used.sum(axis=1)

    # outside both proposals the joint correction term vanishes, leaving the
    # mean ratio of rejected share to outside share over the used classes;
    # each row sums them as one contiguous vector, as a one-row mean does
    generic = np.flatnonzero(((0.0 < acc) & (acc < 1.0)).all(axis=1) & (widths > 0))
    p_not_rho_a = np.full(len(rho), np.nan)
    for width in np.unique(widths[generic]):
        i = generic[widths[generic] == width]
        c = np.nonzero(used[i])[1].reshape(i.size, width)
        share_b = counts[i[:, None], 1, c] / rejected_b[i]
        share_out = pooled[i[:, None], c] / outside[i]
        p_not_rho_a[i] = (share_b / share_out).sum(axis=1) / width
    p_not_rho_a[p_not_rho_a <= 0.0] = np.nan  # the law is undefined there
    acc_a, acc_b = acc.T
    law = (acc_a - upper_bound * (1.0 - p_not_rho_a)) / p_not_rho_a
    return np.select(
        [acc_a == 1.0, acc_a == 0.0, acc_b == 1.0, acc_b == 0.0],
        [acc_b, 0.0, acc_a, 0.0],
        law,
    )


def _median_below(candidates: list, threshold: float) -> tuple:
    """Median of the finite candidates below ``threshold``, and those survivors."""
    if not candidates:
        raise CalibrationError("estimator degenerate: no images")
    survivors = [c for c in candidates if np.isfinite(c) and c < threshold]
    if not survivors:
        raise CalibrationError(
            f"estimator degenerate: no finite candidates below {threshold} "
            f"out of {len(candidates)} images"
        )
    return float(statistics.median(survivors)), survivors


def estimate_delta_two_proposals(
    entries,
    threshold: float = 0.8,
    upper_bound: float = 0.99,
) -> float:
    """Median of the per-image candidates below ``threshold``.

    Non-finite candidates (degenerate denominators) are dropped before the
    threshold filter; no survivors is an error — the estimator is known to
    be fragile and refusing beats guessing.
    """
    raw = two_proposal_candidates(entries, upper_bound)
    return _median_below(raw, threshold)[0]
