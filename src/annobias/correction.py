"""Label repair for proposal-biased annotation counts.

Two composable stages undo the default-effect skew in annotation tallies:

* bias correction inverts the acceptance model in closed form, reading the
  proposal's true mass off the observed proposal share and redistributing
  the remaining mass proportionally to the non-proposal counts;
* class blending mixes the per-image distribution with the class-confusion
  row of its most likely class, injecting dataset-level structure when the
  per-image evidence is thin.

A confusion matrix for blending can be estimated from a ground-truth
sample via repeated simulated annotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    AnnotationSet,
    LabelDistribution,
    TransitionMatrix,
    _check_proposal,
    _draw_class,
    _uniform_index,
    argmax_class,
)

__all__ = [
    "CorrectionParams",
    "UncoveredClassError",
    "bias_correct",
    "bias_correct_distribution",
    "blend_with_class_distribution",
    "repair_labels",
    "estimate_transition_matrix",
]

_CB_INPUTS = ("corrected", "biased")


class UncoveredClassError(ValueError):
    """A confusion-matrix row received no images during estimation."""


@dataclass(frozen=True)
class CorrectionParams:
    """Repair-side knobs.

    ``delta``/``upper_bound`` parameterize the acceptance model being
    inverted (they may differ from the values that generated the data —
    in practice the offset is only known roughly).  ``mu`` weights the
    per-image distribution against the confusion row when blending.
    """

    delta: float = 0.1
    upper_bound: float = 0.99
    mu: float = 0.75

    def __post_init__(self):
        if not self.delta < self.upper_bound:
            raise ValueError("delta must be < upper_bound")
        if not self.upper_bound < 1.0:
            raise ValueError("upper_bound must be < 1")
        if self.delta < 0.0:
            raise ValueError("delta must be >= 0")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")


def _invert(
    weights: np.ndarray, share: float, rest, proposal: int, p: CorrectionParams
) -> LabelDistribution:
    """Invert the acceptance law at the observed proposal ``share``.

    The proposal's corrected mass is ``share`` mapped back through the
    affine acceptance law and clamped to [0, 1]; the other ``weights``,
    divided by their total ``rest``, share the leftover mass.
    """
    b = min(max((share - p.delta) / (p.upper_bound - p.delta), 0.0), 1.0)
    if rest > 0.0:
        out = weights / rest * (1.0 - b)
    else:
        out = np.zeros(weights.size)
    out[proposal] = b
    total = float(out.sum())
    if total <= 0.0:
        # unreachable for valid params (b = 0 forces non-proposal mass > 0)
        raise ValueError("corrected distribution lost all mass")
    return LabelDistribution(out / total)


def bias_correct(
    a: AnnotationSet, proposal: int, p: CorrectionParams
) -> LabelDistribution:
    """Invert the acceptance model on raw annotation counts.

    The proposal's corrected mass is the observed proposal share mapped
    back through the affine acceptance law and clamped to [0, 1]; the
    non-proposal counts are normalized among themselves and scaled by the
    leftover mass.
    """
    proposal = _check_proposal(a.num_classes, proposal)
    if a.total < 1:
        raise ValueError("need at least one annotation")
    share, rest = a[proposal] / a.total, max(1, a.total - a[proposal])
    return _invert(a.counts, share, rest, proposal, p)


def bias_correct_distribution(
    d: LabelDistribution, proposal: int, p: CorrectionParams
) -> LabelDistribution:
    """Acceptance-model inversion applied to an existing distribution.

    Same law as :func:`bias_correct` with probabilities in place of count
    shares; used when the quantity to repair is no longer a raw tally.
    """
    proposal = _check_proposal(d.num_classes, proposal)
    return _invert(d.probs, d[proposal], 1.0 - d[proposal], proposal, p)


def blend_with_class_distribution(
    d: LabelDistribution, t: TransitionMatrix, mu: float
) -> LabelDistribution:
    """Convex mix of a distribution with its top class's confusion row."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    if t.num_classes != d.num_classes:
        raise ValueError(
            f"matrix has {t.num_classes} classes, distribution has {d.num_classes}"
        )
    top = argmax_class(d)
    return LabelDistribution(mu * d.probs + (1.0 - mu) * t.row(top))


def repair_labels(
    a: AnnotationSet,
    proposal: int,
    t: TransitionMatrix,
    p: CorrectionParams,
    *,
    use_bc: bool = True,
    use_cb: bool = True,
    cb_input: str = "corrected",
) -> LabelDistribution:
    """Full label repair: bias correction composed with class blending.

    By default the counts are bias-corrected first and blending sees the
    corrected distribution (whose argmax is the better class estimate).
    ``cb_input="biased"`` blends the raw normalized counts instead and then
    runs the inversion on the blended distribution.  Either stage can be
    switched off; with both off the result is the plain normalized tally.
    """
    if cb_input not in _CB_INPUTS:
        raise ValueError(f"cb_input must be one of {_CB_INPUTS}, got {cb_input!r}")
    proposal = _check_proposal(a.num_classes, proposal)
    if a.total < 1:
        raise ValueError("need at least one annotation")
    if cb_input == "corrected":
        if use_bc:
            d = bias_correct(a, proposal, p)
        else:
            d = LabelDistribution(a.counts / a.total)
        if use_cb:
            d = blend_with_class_distribution(d, t, p.mu)
        return d
    d = LabelDistribution(a.counts / a.total)
    if use_cb:
        d = blend_with_class_distribution(d, t, p.mu)
    if use_bc:
        d = bias_correct_distribution(d, proposal, p)
    return d


def estimate_transition_matrix(
    gts: Sequence[LabelDistribution],
    n_images: int = 100,
    n_annos: int = 10,
    *,
    rng: np.random.Generator,
) -> TransitionMatrix:
    """Estimate a class-confusion matrix from a ground-truth sample.

    Draws ``n_images`` images (without replacement when the pool allows,
    with replacement otherwise), annotates each ``n_annos`` times from its
    ground truth, assigns each image to the top class of its empirical
    distribution, and averages the empirical distributions per class.

    Raises :class:`UncoveredClassError` when some class receives no images
    — callers should retry with more images rather than accept a silently
    invented row.
    """
    pool = list(gts)
    if not pool:
        raise ValueError("need at least one ground-truth distribution")
    if int(n_images) < 1 or int(n_annos) < 1:
        raise ValueError("n_images and n_annos must be >= 1")
    n_images, n_annos = int(n_images), int(n_annos)
    k = pool[0].num_classes
    if any(g.num_classes != k for g in pool):
        raise ValueError("ground-truth distributions disagree on class count")

    if len(pool) >= n_images:
        order = _permutation_indices(len(pool), rng)[:n_images]
    else:
        order = _uniform_index(len(pool), rng.random(n_images))

    sums = np.zeros((k, k), dtype=np.float64)
    hits = np.zeros(k, dtype=np.int64)
    for i in order:
        gt = pool[int(i)]
        counts = np.bincount(_draw_class(gt.probs, rng.random(n_annos)), minlength=k)
        empirical = counts / n_annos
        top = int(np.argmax(empirical))
        sums[top] += empirical
        hits[top] += 1

    missing = np.flatnonzero(hits == 0)
    if missing.size:
        raise UncoveredClassError(
            f"uncovered class {int(missing[0])}: no sampled image has it as "
            f"top class (raise n_images)"
        )
    rows = sums / hits[:, None]
    return TransitionMatrix(rows / rows.sum(axis=1, keepdims=True))


def _permutation_indices(n: int, rng: np.random.Generator) -> np.ndarray:
    """Fisher-Yates shuffle of 0..n-1 driven by plain uniform draws."""
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(_uniform_index(i + 1, rng.random()))
        idx[i], idx[j] = idx[j], idx[i]
    return idx
