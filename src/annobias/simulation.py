"""Proposal-acceptance annotation simulator and comparison strategies.

An annotator shown a proposed class accepts it with probability that grows
with the proposal's ground-truth support but never reaches 1 and never drops
below a dataset-dependent offset.  On rejection the annotator picks among
the remaining classes in proportion to their ground-truth mass.  Six
alternative strategies model other annotator behaviors for comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    AnnotationSet,
    LabelDistribution,
    _check_proposal,
    _draw_class,
    _uniform_index,
    argmax_class,
)

__all__ = [
    "Strategy",
    "SimulationParams",
    "acceptance_probability",
    "simulate_annotation",
    "simulate_annotation_set",
    "simulate_with_strategy",
    "simulate_strategy_set",
]

_REJECT_FALLBACKS = ("first", "random")


class Strategy(enum.Enum):
    """Annotator behavior models.

    ACCEPT_GT      accept/reject against the proposal; rejected draws follow
                   the ground truth over the remaining classes.
    ACCEPT_LIKELY  accept/reject against the proposal; a rejection yields the
                   most likely remaining class.
    TWO_ACCEPT_GT  offset-accept the proposal, then the most likely class;
                   final fallback samples ground truth over remaining classes.
    TWO_ACCEPT_RANDOM  like TWO_ACCEPT_GT but the final fallback is uniform
                   over the remaining classes.
    RANDOM         uniform over all classes, ignoring the proposal.
    GT             sample the ground-truth distribution directly.
    LIKELY         always the single most likely class.
    """

    ACCEPT_GT = "ACCEPT_GT"
    ACCEPT_LIKELY = "ACCEPT_LIKELY"
    TWO_ACCEPT_GT = "TWO_ACCEPT_GT"
    TWO_ACCEPT_RANDOM = "TWO_ACCEPT_RANDOM"
    RANDOM = "RANDOM"
    GT = "GT"
    LIKELY = "LIKELY"

    @classmethod
    def parse(cls, name: str) -> "Strategy":
        try:
            return cls[str(name).strip().upper().replace("-", "_")]
        except KeyError:
            valid = ", ".join(s.name for s in cls)
            raise ValueError(f"unknown strategy {name!r} (expected one of {valid})")


@dataclass(frozen=True)
class SimulationParams:
    """Knobs of the acceptance model.

    ``delta`` is the offset: the probability of accepting a proposal with no
    ground-truth support.  ``upper_bound`` caps acceptance below 1.
    ``repetitions`` is how many annotations to draw per image.
    ``reject_fallback`` decides the annotated class when a rejection occurs
    but the ground truth leaves no mass outside the proposal: ``"first"``
    picks the first non-proposal class, ``"random"`` picks uniformly among
    the non-proposal classes.
    """

    delta: float
    upper_bound: float = 0.99
    repetitions: int = 1
    reject_fallback: str = "first"

    def __post_init__(self):
        if not 0.0 <= self.delta < self.upper_bound:
            raise ValueError("delta must satisfy 0 <= delta < upper_bound")
        if not self.upper_bound < 1.0:
            raise ValueError("upper_bound must be < 1")
        if int(self.repetitions) < 1 or self.repetitions != int(self.repetitions):
            raise ValueError("repetitions must be an integer >= 1")
        object.__setattr__(self, "repetitions", int(self.repetitions))
        if self.reject_fallback not in _REJECT_FALLBACKS:
            raise ValueError(
                f"reject_fallback must be one of {_REJECT_FALLBACKS}, "
                f"got {self.reject_fallback!r}"
            )


def acceptance_probability(
    gt: LabelDistribution, proposal: int, p: SimulationParams
) -> float:
    """Probability the annotator keeps the proposed class.

    Affine in the proposal's ground-truth mass: ``delta`` when the mass is
    zero, ``upper_bound`` when the proposal is certain.
    """
    proposal = _check_proposal(gt.num_classes, proposal)
    return p.delta + (p.upper_bound - p.delta) * gt[proposal]


def _other_class(num_classes: int, proposal: int, r):
    """Class uniform over all but ``proposal``, per uniform in ``r``."""
    j = _uniform_index(num_classes - 1, r)
    return j + (j >= proposal)


def _rejected_class(probs: np.ndarray, proposal: int, fallback: str, r):
    """Class of a rejected proposal, per uniform in ``r`` (float or array).

    Walks the cumulative ground-truth mass of the non-proposal classes and
    returns the first class whose cumulative mass reaches ``r`` times the
    total non-proposal mass.  When that mass is zero (or the walk runs off
    the end) the ``fallback`` policy decides: ``"first"`` is the first
    non-proposal class, ``"random"`` reuses ``r`` for a uniform pick among
    the non-proposal classes.
    """
    k = probs.size
    remainder = 1.0 - probs[proposal]
    if remainder > 0.0:
        masked = probs.copy()
        masked[proposal] = 0.0
        idx = np.searchsorted(np.cumsum(masked), r * remainder, side="left")
        idx = idx + (idx == proposal)
    else:
        idx = np.full(np.shape(r), k)
    overflow = idx >= k
    if not np.count_nonzero(overflow):
        return idx
    if fallback == "first":
        spare = 0 if proposal != 0 else 1
    else:
        spare = _other_class(k, proposal, r)
    return np.where(overflow, spare, idx)


def simulate_annotation(
    gt: LabelDistribution, proposal: int, p: SimulationParams, rng: np.random.Generator
) -> int:
    """One annotation of one image under the acceptance model."""
    return simulate_with_strategy(Strategy.ACCEPT_GT, gt, proposal, p, rng)


def simulate_annotation_set(
    gt: LabelDistribution, proposal: int, p: SimulationParams, rng: np.random.Generator
) -> AnnotationSet:
    """Tally ``p.repetitions`` independent annotations of one image.

    Draws are batched (all acceptance uniforms first, then one uniform per
    rejection) — the per-draw law is identical to repeated
    :func:`simulate_annotation` calls and the result is deterministic for a
    given generator state.
    """
    return simulate_strategy_set(Strategy.ACCEPT_GT, gt, proposal, p, rng)


def _most_likely_remaining(gt: LabelDistribution, proposal: int) -> int:
    masked = np.array(gt.probs, copy=True)
    masked[proposal] = -1.0
    return int(np.argmax(masked))


# Uniforms one simulate_with_strategy call reads at most: the acceptance
# draw, the second acceptance of the two-stage strategies, the final draw.
_MAX_UNIFORMS_PER_DRAW = 3


def simulate_with_strategy(
    strategy: Strategy,
    gt: LabelDistribution,
    proposal: int,
    p: SimulationParams,
    rng: np.random.Generator,
) -> int:
    """One annotation under any of the seven annotator models.

    Only ``rng.random()`` is called, at most ``_MAX_UNIFORMS_PER_DRAW`` times.
    """
    proposal = _check_proposal(gt.num_classes, proposal)
    if strategy is Strategy.RANDOM:
        return int(_uniform_index(gt.num_classes, rng.random()))
    if strategy is Strategy.GT:
        return int(_draw_class(gt.probs, rng.random()))
    if strategy is Strategy.LIKELY:
        return argmax_class(gt)
    if not isinstance(strategy, Strategy):
        raise ValueError(f"unknown strategy {strategy!r}")
    # the four remaining strategies start with the acceptance draw
    if rng.random() <= acceptance_probability(gt, proposal, p):
        return proposal
    if strategy is Strategy.ACCEPT_LIKELY:
        return _most_likely_remaining(gt, proposal)
    if strategy is not Strategy.ACCEPT_GT:
        # two-stage: offer the most likely class before the final draw
        likely = argmax_class(gt)
        if likely != proposal and rng.random() <= acceptance_probability(
            gt, likely, p
        ):
            return likely
    r = rng.random()
    if strategy is Strategy.TWO_ACCEPT_RANDOM:
        return int(_other_class(gt.num_classes, proposal, r))
    return int(_rejected_class(gt.probs, proposal, p.reject_fallback, r))


def simulate_strategy_set(
    strategy: Strategy,
    gt: LabelDistribution,
    proposal: int,
    p: SimulationParams,
    rng: np.random.Generator,
) -> AnnotationSet:
    """Tally ``p.repetitions`` annotations under any strategy.

    The common strategies have vectorized paths; the two-stage acceptance
    strategies fall back to the scalar draw loop.  ``ACCEPT_GT`` draws all
    acceptance uniforms first, then one uniform per rejection.
    """
    proposal = _check_proposal(gt.num_classes, proposal)
    n = p.repetitions
    k = gt.num_classes
    if strategy is Strategy.LIKELY:
        classes = np.full(n, argmax_class(gt))
    elif strategy is Strategy.RANDOM:
        classes = _uniform_index(k, rng.random(n))
    elif strategy is Strategy.GT:
        classes = _draw_class(gt.probs, rng.random(n))
    elif strategy in (Strategy.ACCEPT_GT, Strategy.ACCEPT_LIKELY):
        rejected = rng.random(n) > acceptance_probability(gt, proposal, p)
        classes = np.full(n, proposal)
        if strategy is Strategy.ACCEPT_LIKELY:
            classes[rejected] = _most_likely_remaining(gt, proposal)
        elif rejected.any():
            r = rng.random(int(rejected.sum()))
            classes[rejected] = _rejected_class(
                gt.probs, proposal, p.reject_fallback, r
            )
    else:
        classes = np.fromiter(
            (simulate_with_strategy(strategy, gt, proposal, p, rng) for _ in range(n)),
            dtype=np.int64,
            count=n,
        )
    return AnnotationSet(np.bincount(classes, minlength=k), n)
