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
    _check_acceptance_law,
    _check_proposal,
    _check_proposals,
    _check_unit,
    _draw_class,
    _uniform_index,
    _validated_rows,
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


def _check_cb_input(cb_input: str) -> None:
    if cb_input not in _CB_INPUTS:
        raise ValueError(f"cb_input must be one of {_CB_INPUTS}, got {cb_input!r}")


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
        _check_acceptance_law(self.delta, self.upper_bound)
        _check_unit("mu", self.mu)


def _invert(
    weights: np.ndarray,
    share: np.ndarray,
    rest: np.ndarray,
    proposals: np.ndarray,
    p: CorrectionParams,
) -> np.ndarray:
    """Invert the acceptance law at the observed proposal ``share`` of every row.

    The proposal's corrected mass is ``share`` mapped back through the
    affine acceptance law and clamped to [0, 1]; the other ``weights``,
    divided by their total ``rest``, share the leftover mass.  Returns
    the rows as :class:`LabelDistribution` stores them.
    """
    b = np.minimum(np.maximum((share - p.delta) / (p.upper_bound - p.delta), 0.0), 1.0)
    out = np.zeros(weights.shape)
    live = rest > 0.0
    out[live] = weights[live] / rest[live, None] * (1.0 - b[live, None])
    out[np.arange(proposals.size), proposals] = b
    total = out.sum(axis=1)
    if np.count_nonzero(total <= 0.0):
        # unreachable for valid params (b = 0 forces non-proposal mass > 0)
        raise ValueError("corrected distribution lost all mass")
    return _validated_rows(out / total[:, None])


def _correct_counts(counts: np.ndarray, proposals: np.ndarray, p) -> np.ndarray:
    """:func:`bias_correct` of every row of ``counts[N, K]``."""
    at = (np.arange(proposals.size), proposals)
    totals = counts.sum(axis=1)
    share = counts[at] / totals
    rest = np.maximum(1, totals - counts[at])
    return _invert(counts, share, rest, proposals, p)


def _correct_rows(d: np.ndarray, proposals: np.ndarray, p) -> np.ndarray:
    """:func:`bias_correct_distribution` of every row of ``d[N, K]``."""
    mass = d[np.arange(proposals.size), proposals]
    return _invert(d, mass, 1.0 - mass, proposals, p)


def _blend_rows(d: np.ndarray, t: TransitionMatrix, mu: float) -> np.ndarray:
    """:func:`blend_with_class_distribution` of every row of ``d[N, K]``."""
    _check_unit("mu", mu)
    if t.num_classes != d.shape[1]:
        raise ValueError(
            f"matrix has {t.num_classes} classes, distribution has {d.shape[1]}"
        )
    top = np.argmax(d, axis=1)
    return _validated_rows(mu * d + (1.0 - mu) * t.rows[top])


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
    rows = _correct_counts(a.counts[None], np.array([proposal]), p)
    return LabelDistribution(rows[0])


def bias_correct_distribution(
    d: LabelDistribution, proposal: int, p: CorrectionParams
) -> LabelDistribution:
    """Acceptance-model inversion applied to an existing distribution.

    Same law as :func:`bias_correct` with probabilities in place of count
    shares; used when the quantity to repair is no longer a raw tally.
    """
    proposal = _check_proposal(d.num_classes, proposal)
    return LabelDistribution(_correct_rows(d.probs[None], np.array([proposal]), p)[0])


def blend_with_class_distribution(
    d: LabelDistribution, t: TransitionMatrix, mu: float
) -> LabelDistribution:
    """Convex mix of a distribution with its top class's confusion row."""
    return LabelDistribution(_blend_rows(d.probs[None], t, mu)[0])


def repair_labels(
    a,
    proposal,
    t: TransitionMatrix,
    p: CorrectionParams,
    *,
    use_bc: bool = True,
    use_cb: bool = True,
    cb_input: str = "corrected",
):
    """Full label repair: bias correction composed with class blending.

    By default the counts are bias-corrected first and blending sees the
    corrected distribution (whose argmax is the better class estimate).
    ``cb_input="biased"`` blends the raw normalized counts instead and then
    runs the inversion on the blended distribution.  Either stage can be
    switched off; with both off the result is the plain normalized tally.

    ``a`` is one :class:`AnnotationSet` with an int ``proposal``, repaired
    into a :class:`LabelDistribution`; or integer counts ``[N, K]`` with
    ``proposal[N]``, repaired row by row into ``float64[N, K]`` (every row
    as a ``LabelDistribution`` would store it).
    """
    _check_cb_input(cb_input)
    if isinstance(a, AnnotationSet):
        proposal = _check_proposal(a.num_classes, proposal)
        stages = {"use_bc": use_bc, "use_cb": use_cb, "cb_input": cb_input}
        rows = repair_labels(a.counts[None], np.array([proposal]), t, p, **stages)
        return LabelDistribution(rows[0])
    counts = np.asarray(a)
    proposals = _check_proposals(counts.shape[1], proposal)
    totals = counts.sum(axis=1)
    if np.count_nonzero(totals < 1):
        raise ValueError("need at least one annotation")
    if use_bc and cb_input == "corrected":
        d = _correct_counts(counts, proposals, p)
    else:
        d = _validated_rows(counts / totals[:, None])
    if use_cb:
        d = _blend_rows(d, t, p.mu)
    if use_bc and cb_input == "biased":
        d = _correct_rows(d, proposals, p)
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
    if any(g.num_classes != pool[0].num_classes for g in pool):
        raise ValueError("ground-truth distributions disagree on class count")
    probs = np.array([g.probs for g in pool])
    return _estimate_transitions(probs, n_images, n_annos, rng=rng)


def _estimate_transitions(probs, n_images=100, n_annos=10, *, rng) -> TransitionMatrix:
    """:func:`estimate_transition_matrix` of the soft labels ``probs[N, K]``."""
    if not len(probs):
        raise ValueError("need at least one ground-truth distribution")
    if int(n_images) < 1 or int(n_annos) < 1:
        raise ValueError("n_images and n_annos must be >= 1")
    n_images, n_annos = int(n_images), int(n_annos)
    k = probs.shape[1]

    if len(probs) >= n_images:
        order = _permutation_indices(len(probs), rng)[:n_images]
    else:
        order = _uniform_index(len(probs), rng.random(n_images))

    u = rng.random(order.size * n_annos)  # n_annos per sampled image, in turn
    drawn = _draw_class(probs[order].repeat(n_annos, axis=0), u)
    cells = np.arange(order.size).repeat(n_annos) * k + drawn
    empirical = np.bincount(cells, minlength=order.size * k).reshape(-1, k) / n_annos
    top = empirical.argmax(axis=1)
    sums = np.zeros((k, k), dtype=np.float64)
    np.add.at(sums, top, empirical)  # in sampled order, as a loop would add
    hits = np.bincount(top, minlength=k)

    missing = np.flatnonzero(hits == 0)
    if missing.size:
        raise UncoveredClassError(
            f"uncovered class {int(missing[0])}: no sampled image has it as "
            f"top class (raise n_images)"
        )
    rows = sums / hits[:, None]
    return TransitionMatrix(rows / rows.sum(axis=1, keepdims=True))


def _permutation_indices(n: int, rng: np.random.Generator) -> np.ndarray:
    """Fisher-Yates shuffle of 0..n-1 driven by plain uniform draws.

    Position ``i`` (from ``n - 1`` down to 1) swaps with an index drawn
    uniformly from ``0..i``; the draws are taken in one batch.
    """
    positions = range(n - 1, 0, -1)
    picks = _uniform_index(np.arange(n, 1, -1), rng.random(len(positions)))
    idx = list(range(n))
    for i, j in zip(positions, picks.tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx, dtype=int)
