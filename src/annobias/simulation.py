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
    _check_acceptance_law,
    _check_proposal,
    _draw_class,
    _uniform_index,
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
    ``reject_fallback`` decides the annotated class when, and only when, a
    rejection occurs and no class but the proposal has ground-truth mass:
    ``"first"`` picks the first non-proposal class, ``"random"`` picks
    uniformly among the non-proposal classes.
    """

    delta: float
    upper_bound: float = 0.99
    repetitions: int = 1
    reject_fallback: str = "first"

    def __post_init__(self):
        _check_acceptance_law(self.delta, self.upper_bound)
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
    return float(_acceptance(gt.probs[None], np.array([proposal]), p)[0])


def _acceptance(probs: np.ndarray, classes: np.ndarray, p: SimulationParams):
    """:func:`acceptance_probability` of ``classes[i]`` in row ``i`` of ``probs``."""
    mass = probs[np.arange(classes.size), classes]
    return p.delta + (p.upper_bound - p.delta) * mass


def _other_class(num_classes: int, proposal, r):
    """Class uniform over all but ``proposal``, per uniform in ``r``."""
    j = _uniform_index(num_classes - 1, r)
    return j + (j >= proposal)


def _rejected_class(probs: np.ndarray, proposal: np.ndarray, fallback: str, r):
    """Class of a rejected proposal, per row of ``probs[R, K]``.

    Row ``i`` proposed ``proposal[i]`` and reads the uniform ``r[i]``.
    The class is :func:`core._draw_class` of the row with the proposal's
    mass zeroed, at ``r`` times ``1 - probs[proposal]``, so it has mass and
    is never the proposal.  Only a row where no class but the proposal has
    mass goes to the ``fallback`` policy: ``"first"`` is the first
    non-proposal class, ``"random"`` reuses ``r`` for a uniform pick among
    the non-proposal classes.
    """
    at = (np.arange(proposal.size), proposal)
    masked = probs.copy()
    masked[at] = 0.0
    idx = _draw_class(masked, r * (1.0 - probs[at]))
    empty = ~masked.any(axis=1)
    if not np.count_nonzero(empty):
        return idx
    if fallback == "first":
        spare = (proposal == 0).astype(np.int64)
    else:
        spare = _other_class(probs.shape[1], proposal, r)
    return np.where(empty, spare, idx)


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


def _most_likely_remaining(probs: np.ndarray, proposals: np.ndarray) -> np.ndarray:
    """Heaviest class of each row of ``probs`` other than its proposal."""
    masked = probs.copy()
    masked[np.arange(proposals.size), proposals] = -1.0
    return masked.argmax(axis=1)


# Uniforms one draw reads at most: the acceptance draw, the second
# acceptance of the two-stage strategies, the final draw.
_MAX_UNIFORMS_PER_DRAW = 3


class _Rows:
    """Pre-drawn uniforms ``u[N, m]``, each row read front to back.

    Reading past the end of a row raises instead of reusing a value.
    """

    def __init__(self, u: np.ndarray):
        self._u = u
        self._next = np.zeros(len(u), dtype=np.int64)

    def take(self, counts) -> np.ndarray:
        """The next ``counts[i]`` uniforms of every row ``i``, row after row."""
        counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), self._next.shape)
        end = self._next + counts
        m = self._u.shape[1]
        if end.size and end.max() > m:
            raise RuntimeError(f"a row read more than {m} pre-drawn uniforms")
        rows = np.repeat(np.arange(counts.size), counts)
        cols = np.arange(rows.size) - np.repeat(
            np.cumsum(counts) - counts - self._next, counts
        )
        self._next = end
        return self._u[rows, cols]


class _Stream:
    """One row read from a generator: ``random()`` for one uniform."""

    def __init__(self, rng):
        self._rng = rng

    def take(self, counts) -> np.ndarray:
        c = int(counts[0] if isinstance(counts, np.ndarray) else counts)
        if c == 1:
            return np.array([self._rng.random()])
        return self._rng.random(c) if c else np.empty(0)


def _simulate_counts(
    strategy: Strategy,
    probs: np.ndarray,
    proposals: np.ndarray,
    n: int,
    p: SimulationParams,
    source,
) -> np.ndarray:
    """Tally ``n`` annotations of every row of ``probs[N, K]`` as ``int64[N, K]``.

    ``proposals[N]`` are the rows' proposed classes, already in range.
    ``source`` supplies the uniforms: a generator (anything with
    ``random()``) for a single row, or ``float64[N, m]`` pre-drawn rows.
    A row reads at most ``2n`` of them for ``ACCEPT_GT``, ``3n`` for the
    two-stage strategies, ``n`` for the others and none for ``LIKELY``, in
    the order :func:`_draw_classes` gives; reading past the end of a
    pre-drawn row raises ``RuntimeError``.
    """
    classes = _draw_classes(strategy, probs, proposals, n, p, source)
    rows, k = classes.shape[0], np.shape(probs)[1]
    offsets = np.arange(0, rows * k, k)[:, None]
    return np.bincount((classes + offsets).ravel(), minlength=rows * k).reshape(rows, k)


def _draw_classes(strategy, probs, proposals, n, p, source) -> np.ndarray:
    """The ``n`` annotated classes of every row, as ``int64[N, n]``.

    The one implementation of every strategy's stage order.  Each row
    reads its own uniforms in the same order: ``ACCEPT_GT`` reads ``n``
    acceptance uniforms, then one per rejection in draw order; the
    two-stage strategies read draw by draw (acceptance, the second
    acceptance when offered, the final draw when both reject); ``RANDOM``,
    ``GT`` and ``ACCEPT_LIKELY`` read ``n``; ``LIKELY`` reads none.  A
    generator is read one ``random()`` at a time, or ``random(c)`` for
    ``c > 1`` uniforms at once.
    """
    probs = np.asarray(probs, dtype=np.float64)
    proposals = np.asarray(proposals, dtype=np.int64)
    rows, k = probs.shape
    if strategy is Strategy.LIKELY:
        return probs.argmax(axis=1)[:, None].repeat(n, axis=1)
    take = (_Stream(source) if hasattr(source, "random") else _Rows(source)).take
    if strategy is Strategy.RANDOM:
        return _uniform_index(k, take(n)).reshape(rows, n)
    if strategy is Strategy.GT:
        return _draw_class(probs.repeat(n, axis=0), take(n)).reshape(rows, n)
    if not isinstance(strategy, Strategy):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy not in (Strategy.ACCEPT_GT, Strategy.ACCEPT_LIKELY):
        return _two_stage(strategy, probs, proposals, n, p, take)
    rejected = take(n).reshape(rows, n) > _acceptance(probs, proposals, p)[:, None]
    if strategy is Strategy.ACCEPT_LIKELY:
        other = _most_likely_remaining(probs, proposals)
        return np.where(rejected, other[:, None], proposals[:, None])
    classes = proposals[:, None].repeat(n, axis=1)
    if np.count_nonzero(rejected):
        who = rejected.nonzero()[0]
        r = take(rejected.sum(axis=1))
        classes[rejected] = _rejected_class(
            probs[who], proposals[who], p.reject_fallback, r
        )
    return classes


def _two_stage(strategy, probs, proposals, n, p, take) -> np.ndarray:
    """Classes ``[N, n]`` of the two-stage strategies, read draw by draw.

    The proposal is offered first; on rejection the most likely class is
    offered (when it differs from the proposal); when that is rejected
    too, the final draw picks among the non-proposal classes.  Only the
    reads follow the draws one by one; the final classes are computed
    afterwards from their uniforms, all in one call.
    """
    rows, k = probs.shape
    accept = _acceptance(probs, proposals, p)
    likely = probs.argmax(axis=1)
    accept_likely = _acceptance(probs, likely, p)
    offer = likely != proposals
    took = np.zeros((rows, n), dtype=bool)  # the most likely class accepted
    final = np.zeros((rows, n), dtype=bool)  # both offers rejected
    r = np.zeros((rows, n))  # uniform of each final draw
    # count_nonzero: a C call, where ndarray.any() goes through Python
    for j in range(n):
        rejected = take(1) > accept
        if not np.count_nonzero(rejected):
            continue
        ask = rejected & offer
        if np.count_nonzero(ask):
            took[ask, j] = take(ask) <= accept_likely[ask]
        last = rejected & ~took[:, j]
        if np.count_nonzero(last):
            final[:, j] = last
            r[last, j] = take(last)
    classes = np.where(took, likely[:, None], proposals[:, None])
    if np.count_nonzero(final):
        who = final.nonzero()[0]
        if strategy is Strategy.TWO_ACCEPT_RANDOM:
            classes[final] = _other_class(k, proposals[who], r[final])
        else:
            classes[final] = _rejected_class(
                probs[who], proposals[who], p.reject_fallback, r[final]
            )
    return classes


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
    return int(_draw_classes(strategy, gt.probs[None], [proposal], 1, p, rng)[0, 0])


def simulate_strategy_set(
    strategy: Strategy,
    gt: LabelDistribution,
    proposal: int,
    p: SimulationParams,
    rng: np.random.Generator,
) -> AnnotationSet:
    """Tally ``p.repetitions`` annotations under any strategy.

    One row of :func:`_simulate_counts`: ``ACCEPT_GT`` draws all
    acceptance uniforms first, then one uniform per rejection; the
    two-stage strategies draw annotation by annotation.
    """
    proposal = _check_proposal(gt.num_classes, proposal)
    n = p.repetitions
    counts = _simulate_counts(strategy, gt.probs[None], [proposal], n, p, rng)
    return AnnotationSet(counts[0])
