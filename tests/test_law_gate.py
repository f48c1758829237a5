"""Stream-independent law gate for the batched draw engine.

Every strategy's one-draw class frequencies are checked against a closed
form written out here: the proposal is kept with probability
``a(rho) = delta + (upper_bound - delta) * gt[rho]``, and the rest of the
mass, ``1 - a(rho)``, follows the strategy's rest law.  The two-stage
strategies first offer the most likely class when it differs from the
proposal.  The uniforms come from ``numpy.random.default_rng``, never from
``annobias.rng``, so the gate holds for any stream scheme that feeds the
engine uniform rows.  The lattice gate feeds a midpoint grid instead, and
bounds each class's error by the thresholds of its region, with no false
alarms.
"""

import numpy as np
import pytest

from annobias.simulation import SimulationParams, Strategy, _simulate_counts

DELTA = 0.2
UPPER_BOUND = 0.95
ROWS = 40_000
Z_MAX = 5.0
GRID = 32  # midpoints per uniform of the lattice gate
FALLBACKS = ("first", "random")

# (name, ground truth, proposal)
FIXTURES = [
    ("proposal-not-argmax", [0.1, 0.5, 0.3, 0.1], 2),
    ("tied-top-proposal-last", [0.4, 0.4, 0.1, 0.1], 3),
    ("tied-top-proposal-first", [0.4, 0.4, 0.1, 0.1], 0),
    ("proposal-mass-one", [0.0, 1.0, 0.0, 0.0], 1),
    ("zero-mass-proposal", [0.6, 0.3, 0.1, 0.0], 3),
    ("two-classes", [0.3, 0.7], 0),
]


def _acceptance(gt, c):
    return DELTA + (UPPER_BOUND - DELTA) * gt[c]


def _one_hot(k, c):
    out = np.zeros(k)
    out[c] = 1.0
    return out


def _rest_law(strategy, gt, rho, fallback):
    """Where a draw lands once every offer is rejected."""
    k = gt.size
    others = np.arange(k) != rho
    uniform_others = others / others.sum()
    if strategy is Strategy.ACCEPT_LIKELY:
        return _one_hot(k, int(np.argmax(np.where(others, gt, -1.0))))
    if strategy is Strategy.TWO_ACCEPT_RANDOM:
        return uniform_others
    outside = np.where(others, gt, 0.0)
    if outside.sum() > 0.0:
        return outside / outside.sum()
    if fallback == "first":
        return _one_hot(k, int(np.flatnonzero(others)[0]))
    return uniform_others


def _closed_form(strategy, gt, rho, fallback):
    """Class probabilities of one draw."""
    k = gt.size
    if strategy is Strategy.RANDOM:
        return np.full(k, 1.0 / k)
    if strategy is Strategy.GT:
        return gt
    if strategy is Strategy.LIKELY:
        return _one_hot(k, int(np.argmax(gt)))
    rest = _rest_law(strategy, gt, rho, fallback)
    top = int(np.argmax(gt))
    if strategy in (Strategy.TWO_ACCEPT_GT, Strategy.TWO_ACCEPT_RANDOM) and top != rho:
        a_top = _acceptance(gt, top)
        rest = a_top * _one_hot(k, top) + (1.0 - a_top) * rest
    a = _acceptance(gt, rho)
    return a * _one_hot(k, rho) + (1.0 - a) * rest


@pytest.mark.parametrize("fallback", FALLBACKS)
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.name)
def test_one_draw_frequencies_match_the_closed_form(strategy, fallback):
    p = SimulationParams(DELTA, UPPER_BOUND, reject_fallback=fallback)
    seed = [7, list(Strategy).index(strategy), FALLBACKS.index(fallback)]
    rng = np.random.default_rng(seed)
    for name, gt, rho in FIXTURES:
        gt = np.array(gt)
        law = _closed_form(strategy, gt, rho, fallback)
        assert law.sum() == pytest.approx(1.0)
        probs = np.tile(gt, (ROWS, 1))
        proposals = np.full(ROWS, rho)
        uniforms = rng.random((ROWS, 3))
        rows = _simulate_counts(strategy, probs, proposals, 1, p, uniforms)
        counts = rows.sum(axis=0)
        assert counts.sum() == ROWS
        expected = ROWS * law
        spread = np.sqrt(ROWS * law * (1.0 - law))
        for c in range(gt.size):
            if spread[c] == 0.0:
                assert counts[c] == round(expected[c]), (name, c, counts, law)
            else:
                z = abs(counts[c] - expected[c]) / spread[c]
                assert z <= Z_MAX, (name, c, counts.tolist(), law.tolist(), z)


def _thresholds(strategy, gt, rho, fallback):
    """Per class, at most how many interior thresholds bound its region.

    One draw reads at most three uniforms, and its class is a leaf of a
    tree: each acceptance compares one uniform with one threshold, and the
    final draw puts one uniform in an interval (two thresholds, none when
    the rest law is one class).  A class's region of the uniform cube is
    then a union of boxes, one per leaf that yields it.  Classes the law
    never yields have an empty region.
    """
    law = _closed_form(strategy, gt, rho, fallback)
    if strategy in (Strategy.RANDOM, Strategy.GT, Strategy.LIKELY):
        return np.where(law < 1.0, 2, 0) * (law > 0.0)
    rest = _rest_law(strategy, gt, rho, fallback)
    top = int(np.argmax(gt))
    offered = strategy in (Strategy.TWO_ACCEPT_GT, Strategy.TWO_ACCEPT_RANDOM)
    offered = offered and top != rho
    # the final draw's leaf: one threshold per offer, then its interval
    counts = np.where(rest > 0.0, 1 + offered + np.where(rest < 1.0, 2, 0), 0)
    counts[rho] += 1
    if offered:
        counts[top] += 2
    return counts


@pytest.mark.parametrize("fallback", FALLBACKS)
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.name)
def test_one_draw_on_the_midpoint_lattice_matches_the_closed_form(strategy, fallback):
    """Every draw's class law, on the grid ``(i + 0.5) / GRID`` of every uniform.

    The midpoints at or below a threshold ``t`` number ``GRID * t`` within
    1/2, so one coordinate of a box is off by at most ``1 / (2 GRID)`` per
    interior threshold, and a product of numbers in [0, 1] is off by at
    most the sum of its factors' errors.  A class is thus off by at most
    ``c / GRID``, ``c`` half its thresholds; a class the law never yields
    gets no grid point at all.
    """
    p = SimulationParams(DELTA, UPPER_BOUND, reject_fallback=fallback)
    mid = (np.arange(GRID) + 0.5) / GRID
    uniforms = np.stack(np.meshgrid(mid, mid, mid, indexing="ij"), -1).reshape(-1, 3)
    rows = len(uniforms)
    for name, gt, rho in FIXTURES:
        gt = np.array(gt)
        law = _closed_form(strategy, gt, rho, fallback)
        probs = np.tile(gt, (rows, 1))
        counts = _simulate_counts(strategy, probs, np.full(rows, rho), 1, p, uniforms)
        freq = counts.sum(axis=0) / rows
        bound = _thresholds(strategy, gt, rho, fallback) / (2 * GRID) + 1e-12
        assert np.all(np.abs(freq - law) <= bound), (name, freq.tolist(), law.tolist())
