"""Acceptance-model simulator: branch behavior, frequencies, strategies."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annobias import (
    LabelDistribution,
    SimulationParams,
    Strategy,
    acceptance_probability,
    normalize,
    simulate_annotation,
    simulate_annotation_set,
    simulate_strategy_set,
    simulate_with_strategy,
    substream,
)
from annobias.simulation import _rejected_class, _simulate_counts


class FakeRng:
    """Deterministic stand-in for a Generator; feeds a fixed uniform queue."""

    def __init__(self, *values):
        self._values = list(values)
        self.consumed = 0

    def random(self):
        if not self._values:
            raise AssertionError("test consumed more uniform draws than queued")
        self.consumed += 1
        return self._values.pop(0)


class TestAcceptanceProbability:
    def test_certain_proposal_hits_upper_bound(self):
        p = SimulationParams(delta=0.1)
        gt = LabelDistribution([1.0, 0.0, 0.0])
        assert acceptance_probability(gt, 0, p) == pytest.approx(0.99, abs=1e-15)

    def test_unsupported_proposal_hits_offset(self):
        p = SimulationParams(delta=0.1)
        gt = LabelDistribution([1.0, 0.0, 0.0])
        assert acceptance_probability(gt, 1, p) == pytest.approx(0.1, abs=1e-15)

    def test_halfway_support(self):
        p = SimulationParams(delta=0.1)
        gt = LabelDistribution([0.5, 0.5])
        assert acceptance_probability(gt, 0, p) == pytest.approx(0.545, abs=1e-12)

    def test_proposal_out_of_range(self):
        p = SimulationParams(delta=0.1)
        gt = LabelDistribution([0.5, 0.5])
        with pytest.raises(IndexError):
            acceptance_probability(gt, 2, p)

    @given(
        st.floats(min_value=0.0, max_value=0.9),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
        st.integers(min_value=0, max_value=5),
    )
    def test_bounded_by_offset_and_cap(self, delta, weights, idx):
        gt = normalize(np.asarray(weights))
        proposal = idx % gt.num_classes
        p = SimulationParams(delta=delta)
        a = acceptance_probability(gt, proposal, p)
        assert p.delta - 1e-12 <= a <= p.upper_bound + 1e-12


class TestSimulationParams:
    def test_delta_above_upper_bound_rejected(self):
        with pytest.raises(ValueError):
            SimulationParams(delta=0.995, upper_bound=0.99)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            SimulationParams(delta=-0.01)

    def test_upper_bound_of_one_rejected(self):
        with pytest.raises(ValueError):
            SimulationParams(delta=0.1, upper_bound=1.0)

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError):
            SimulationParams(delta=0.1, repetitions=0)

    def test_unknown_fallback_rejected(self):
        with pytest.raises(ValueError):
            SimulationParams(delta=0.1, reject_fallback="loudest")


class TestSimulateAnnotation:
    def test_accept_branch_returns_proposal(self):
        p = SimulationParams(delta=0.1)
        gt = LabelDistribution([0.5, 0.3, 0.2])
        rng = FakeRng(0.0)
        assert simulate_annotation(gt, 2, p, rng) == 2
        assert rng.consumed == 1

    def test_reject_branch_samples_remaining_mass(self):
        # gt (0.5, 0.5), proposal 0, offset 0: a rejection must yield class 1.
        p = SimulationParams(delta=0.0)
        gt = LabelDistribution([0.5, 0.5])
        for r in (0.0, 0.3, 0.999):
            rng = FakeRng(0.999, r)
            assert simulate_annotation(gt, 0, p, rng) == 1

    def test_reject_walks_cumulative_mass(self):
        p = SimulationParams(delta=0.1)
        gt = LabelDistribution([0.5, 0.3, 0.2])
        # Non-proposal mass of proposal 2 is (0.5, 0.3); r*0.8 below 0.5
        # lands on class 0, above it on class 1.
        assert simulate_annotation(gt, 2, p, FakeRng(0.99, 0.4)) == 0
        assert simulate_annotation(gt, 2, p, FakeRng(0.99, 0.7)) == 1

    def test_degenerate_rejection_first_fallback(self):
        # All mass on the proposal leaves nothing to sample; "first" picks
        # the first non-proposal class.
        p = SimulationParams(delta=0.1, reject_fallback="first")
        gt = LabelDistribution([1.0, 0.0, 0.0])
        assert simulate_annotation(gt, 0, p, FakeRng(0.999, 0.42)) == 1
        gt2 = LabelDistribution([0.0, 1.0, 0.0])
        assert simulate_annotation(gt2, 1, p, FakeRng(0.999, 0.42)) == 0

    def test_degenerate_rejection_random_fallback(self):
        p = SimulationParams(delta=0.1, reject_fallback="random")
        gt = LabelDistribution([1.0, 0.0, 0.0])
        assert simulate_annotation(gt, 0, p, FakeRng(0.999, 0.2)) == 1
        assert simulate_annotation(gt, 0, p, FakeRng(0.999, 0.6)) == 2

    def test_proposal_frequency_matches_acceptance_probability(self):
        p = SimulationParams(delta=0.1)
        gt = LabelDistribution([0.6, 0.3, 0.1])
        a = acceptance_probability(gt, 0, p)  # 0.1 + 0.89*0.6 = 0.634
        assert a == pytest.approx(0.634, abs=1e-12)
        rng = substream(13, "sim-freq")
        n = 100_000
        hits = sum(simulate_annotation(gt, 0, p, rng) == 0 for _ in range(n))
        sigma = (a * (1 - a) / n) ** 0.5
        assert abs(hits / n - a) <= 3 * sigma


class TestSimulateAnnotationSet:
    def test_single_draw(self):
        p = SimulationParams(delta=0.1, repetitions=1)
        gt = LabelDistribution([0.5, 0.5])
        a = simulate_annotation_set(gt, 0, p, substream(0, "set-single"))
        assert a.total == 1
        assert a.counts.sum() == 1

    def test_near_certain_proposal(self):
        p = SimulationParams(delta=0.1, repetitions=100_000)
        gt = LabelDistribution([1.0, 0.0])
        a = simulate_annotation_set(gt, 0, p, substream(1, "set-certain"))
        assert abs(a.counts[0] / a.total - 0.99) <= 0.001

    def test_rejected_mass_split_matches_gt(self):
        p = SimulationParams(delta=0.1, repetitions=200_000)
        gt = LabelDistribution([0.5, 0.3, 0.2])
        a = simulate_annotation_set(gt, 0, p, substream(2, "set-split"))
        rejected = a.total - a.counts[0]
        # Rejections follow gt over the remaining classes: 0.3/0.5 vs 0.2/0.5.
        assert rejected > 10_000
        frac1 = a.counts[1] / rejected
        sigma = (0.6 * 0.4 / rejected) ** 0.5
        assert abs(frac1 - 0.6) <= 3 * sigma

    def test_deterministic_for_same_stream(self):
        p = SimulationParams(delta=0.2, repetitions=5000)
        gt = LabelDistribution([0.4, 0.4, 0.2])
        a = simulate_annotation_set(gt, 1, p, substream(3, "set-det"))
        b = simulate_annotation_set(gt, 1, p, substream(3, "set-det"))
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_matches_scalar_law(self):
        # Batched and scalar paths share the per-draw law; compare their
        # acceptance frequencies on independent streams.
        p = SimulationParams(delta=0.1, repetitions=100_000)
        gt = LabelDistribution([0.6, 0.3, 0.1])
        a = acceptance_probability(gt, 0, p)
        batched = simulate_annotation_set(gt, 0, p, substream(4, "set-law"))
        sigma = (a * (1 - a) / p.repetitions) ** 0.5
        assert abs(batched.counts[0] / p.repetitions - a) <= 3 * sigma


class TestStrategies:
    GT = LabelDistribution([0.5, 0.3, 0.2])

    def test_parse(self):
        assert Strategy.parse("accept-gt") is Strategy.ACCEPT_GT
        assert Strategy.parse("TWO_ACCEPT_RANDOM") is Strategy.TWO_ACCEPT_RANDOM
        with pytest.raises(ValueError, match="unknown strategy"):
            Strategy.parse("bogus")

    def test_likely_always_argmax(self):
        p = SimulationParams(delta=0.1)
        rng = substream(5, "strat-likely")
        for _ in range(20):
            assert simulate_with_strategy(Strategy.LIKELY, self.GT, 2, p, rng) == 0

    def test_random_is_uniform(self):
        p = SimulationParams(delta=0.1, repetitions=100_000)
        gt = LabelDistribution([0.97, 0.01, 0.01, 0.01])
        a = simulate_strategy_set(
            Strategy.RANDOM, gt, 0, p, substream(6, "strat-random")
        )
        freqs = a.counts / a.total
        assert np.all(np.abs(freqs - 0.25) <= 0.005)

    def test_gt_ignores_proposal(self):
        p = SimulationParams(delta=0.1, repetitions=100_000)
        a = simulate_strategy_set(Strategy.GT, self.GT, 2, p, substream(7, "strat-gt"))
        freqs = a.counts / a.total
        sigma = np.sqrt(np.asarray(self.GT.probs) * (1 - np.asarray(self.GT.probs)) / a.total)
        assert np.all(np.abs(freqs - self.GT.probs) <= 3 * sigma)

    def test_accept_likely_rejection_takes_most_likely_remaining(self):
        p = SimulationParams(delta=0.1)
        assert (
            simulate_with_strategy(Strategy.ACCEPT_LIKELY, self.GT, 2, p, FakeRng(0.99))
            == 0
        )
        # and acceptance still returns the proposal
        assert (
            simulate_with_strategy(Strategy.ACCEPT_LIKELY, self.GT, 2, p, FakeRng(0.0))
            == 2
        )

    def test_two_accept_gt_second_stage_accepts_most_likely(self):
        p = SimulationParams(delta=0.1)
        # First stage rejects (0.9 > 0.278), second accepts class 0
        # (0.5 <= 0.1 + 0.89*0.5).
        rng = FakeRng(0.9, 0.5)
        assert simulate_with_strategy(Strategy.TWO_ACCEPT_GT, self.GT, 2, p, rng) == 0
        assert rng.consumed == 2

    def test_two_accept_gt_final_fallback_samples_remaining_gt(self):
        p = SimulationParams(delta=0.1)
        rng = FakeRng(0.9, 0.99, 0.4)
        assert simulate_with_strategy(Strategy.TWO_ACCEPT_GT, self.GT, 2, p, rng) == 0
        rng = FakeRng(0.9, 0.99, 0.7)
        assert simulate_with_strategy(Strategy.TWO_ACCEPT_GT, self.GT, 2, p, rng) == 1

    def test_two_accept_random_final_fallback_uniform_over_rest(self):
        p = SimulationParams(delta=0.1)
        rng = FakeRng(0.9, 0.99, 0.1)
        assert (
            simulate_with_strategy(Strategy.TWO_ACCEPT_RANDOM, self.GT, 2, p, rng) == 0
        )
        rng = FakeRng(0.9, 0.99, 0.9)
        assert (
            simulate_with_strategy(Strategy.TWO_ACCEPT_RANDOM, self.GT, 2, p, rng) == 1
        )

    def test_two_accept_skips_second_stage_when_argmax_is_proposal(self):
        p = SimulationParams(delta=0.1)
        gt = LabelDistribution([0.2, 0.2, 0.6])
        rng = FakeRng(0.99, 0.5)
        out = simulate_with_strategy(Strategy.TWO_ACCEPT_GT, gt, 2, p, rng)
        assert out in (0, 1)
        assert rng.consumed == 2  # no acceptance draw for the argmax stage

    def test_accept_gt_with_zero_offset_and_unsupported_proposal_matches_gt(self):
        # Offset 0 and no ground-truth mass on the proposal: every draw is
        # rejected and redrawn from the ground truth itself.
        p = SimulationParams(delta=0.0, repetitions=100_000)
        gt = LabelDistribution([0.0, 0.6, 0.4])
        a = simulate_strategy_set(
            Strategy.ACCEPT_GT, gt, 0, p, substream(8, "strat-gt-equiv")
        )
        freqs = a.counts / a.total
        assert freqs[0] == 0.0
        assert abs(freqs[1] - 0.6) <= 0.005

    @pytest.mark.parametrize(
        "strategy, fallback",
        [
            pytest.param(s, "first", id=str(s))
            for s in (
                Strategy.ACCEPT_LIKELY,
                Strategy.RANDOM,
                Strategy.GT,
                Strategy.LIKELY,
            )
        ]
        + [
            pytest.param(s, fallback, id=f"{s}-{fallback}")
            for s in (Strategy.TWO_ACCEPT_GT, Strategy.TWO_ACCEPT_RANDOM)
            for fallback in ("first", "random")
        ],
    )
    def test_set_path_matches_scalar_loop_draw_for_draw(self, strategy, fallback):
        p = SimulationParams(delta=0.1, repetitions=500, reject_fallback=fallback)
        key = ("strat-vec", strategy.name)
        batched = simulate_strategy_set(
            strategy, self.GT, 2, p, substream(9, *key)
        )
        rng = substream(9, *key)
        scalar = np.zeros(3, dtype=np.int64)
        for _ in range(p.repetitions):
            scalar[simulate_with_strategy(strategy, self.GT, 2, p, rng)] += 1
        np.testing.assert_array_equal(batched.counts, scalar)

    def test_two_accept_set_paths_run(self):
        p = SimulationParams(delta=0.1, repetitions=1000)
        for strat in (Strategy.TWO_ACCEPT_GT, Strategy.TWO_ACCEPT_RANDOM):
            a = simulate_strategy_set(strat, self.GT, 2, p, substream(10, strat.name))
            assert a.total == 1000
            assert a.counts.sum() == 1000


class TestDeterminism:
    def test_per_image_streams_are_order_independent(self):
        p = SimulationParams(delta=0.1, repetitions=50)
        gt_a = LabelDistribution([0.7, 0.2, 0.1])
        gt_b = LabelDistribution([0.1, 0.8, 0.1])

        def run(image_order):
            out = {}
            for image_id, gt in image_order:
                rng = substream(21, "order", image_id)
                out[image_id] = simulate_annotation_set(gt, 0, p, rng).counts
            return out

        forward = run([("a", gt_a), ("b", gt_b)])
        backward = run([("b", gt_b), ("a", gt_a)])
        np.testing.assert_array_equal(forward["a"], backward["a"])
        np.testing.assert_array_equal(forward["b"], backward["b"])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=0.0, max_value=0.5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_simulated_classes_always_valid(weights, idx, delta, seed):
    gt = normalize(np.asarray(weights))
    proposal = idx % gt.num_classes
    p = SimulationParams(delta=delta, repetitions=25)
    rng = substream(seed, "prop-valid")
    a = simulate_annotation_set(gt, proposal, p, rng)
    assert a.total == 25
    assert a.counts.sum() == 25
    assert np.all(a.counts >= 0)


# the two largest doubles below 1
_BELOW_ONE = float(np.nextafter(1.0, 0.0))
_NEXT_BELOW_ONE = float(np.nextafter(_BELOW_ONE, 0.0))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
        min_size=2,
        max_size=6,
    ),
    st.integers(min_value=0, max_value=5),
    st.sampled_from(["first", "random"]),
    st.sampled_from(["as_drawn", "certain", "short"]),
    st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            st.sampled_from([_BELOW_ONE, _NEXT_BELOW_ONE]),
        ),
        min_size=1,
        max_size=8,
    ),
)
# r within rounding of 1 walks off the end while mass remains
@example([0.0, 0.3, 0.7], 2, "first", "as_drawn", [_BELOW_ONE])
def test_rejection_law_scalar_matches_array(weights, idx, fallback, shape, rs):
    """One rejection law: a row gets the same class alone, as a one-row
    batch, and among other rows, and that class has mass whenever any
    class other than the proposal has.

    ``certain`` puts all mass on the proposal (the fallback case);
    ``short`` leaves the masses summing a hair under 1, as stored
    distributions may, so uniforms near 1 run off the cumulative sum.
    """
    k = len(weights)
    proposal = idx % k
    probs = np.asarray(weights, dtype=np.float64)
    if shape == "certain" or probs.sum() == probs[proposal]:
        probs = np.zeros(k)
        probs[proposal] = 1.0
    else:
        probs = probs / probs.sum()
        if shape == "short":
            probs = probs * (1.0 - 1e-10)
    r = np.asarray(rs)
    rows = np.tile(probs, (r.size, 1))
    batch = _rejected_class(rows, np.full(r.size, proposal), fallback, r)
    assert batch.shape == r.shape
    # every other row a uniform distribution proposing the next class
    mixed = np.tile([probs, np.full(k, 1.0 / k)], (r.size, 1))
    proposals = np.tile([proposal, (proposal + 1) % k], r.size)
    np.testing.assert_array_equal(
        _rejected_class(mixed, proposals, fallback, r.repeat(2))[::2], batch
    )
    for ri, cls in zip(rs, batch):
        single = _rejected_class(rows[:1], np.array([proposal]), fallback, np.array([ri]))
        assert single.tolist() == [cls]
        assert 0 <= int(cls) < k and int(cls) != proposal
        if np.delete(probs, proposal).any():
            assert probs[cls] > 0.0, (probs.tolist(), ri, int(cls))


@pytest.mark.parametrize("fallback", ["first", "random"])
def test_rejection_walk_overflow_takes_the_last_class_with_mass(fallback):
    # 1 - p[proposal] exceeds the stored non-proposal mass, so a uniform
    # near 1 walks past the last class with mass; it stays there, as
    # _draw_class's float-dust guard does, and the fallback is not asked.
    probs = np.array([0.2, 0.5, 0.3, 0.0]) * (1.0 - 1e-10)
    rows = np.array([probs, probs, probs])
    single = _rejected_class(rows[:1], np.array([1]), fallback, np.array([_BELOW_ONE]))
    assert single.tolist() == [2]
    r = np.array([0.1, _BELOW_ONE, _BELOW_ONE])
    batch = _rejected_class(rows, np.array([1, 1, 2]), fallback, r)
    np.testing.assert_array_equal(batch, [0, 2, 1])


@pytest.mark.parametrize(
    "fallback, expected", [("first", [0, 1, 1, 2]), ("random", [0, 2, 1, 2])]
)
def test_rejection_fallback_decides_only_rows_without_other_mass(fallback, expected):
    rows = np.array(
        [
            [0.0, 1.0, 0.0],  # all mass on the proposal
            [1.0 - 1e-10, 0.0, 0.0],  # 1 - p[proposal] > 0, yet no other mass
            [1.0, 1e-13, 0.0],  # 1 - p[proposal] rounds to 0, with other mass
            [0.5, 0.2, 0.3],
        ]
    )
    r = np.array([0.25, 0.75, 0.75, 0.9])
    got = _rejected_class(rows, np.array([1, 0, 0, 0]), fallback, r)
    np.testing.assert_array_equal(got, expected)


def test_rejection_at_uniform_zero_skips_classes_without_mass():
    # r = 0 reaches the first class with non-proposal mass, as _draw_class
    # does, not the first class of the walk
    rows = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    got = _rejected_class(rows, np.array([2, 0]), "first", np.zeros(2))
    np.testing.assert_array_equal(got, [1, 2])
    p = SimulationParams(delta=0.1)
    u = np.array([[0.999, 0.0]])  # reject the proposal, then draw at r = 0
    counts = _simulate_counts(Strategy.ACCEPT_GT, rows[:1], [2], 1, p, u)
    np.testing.assert_array_equal(counts, [[0, 1, 0]])
