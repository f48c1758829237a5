"""Core distribution/count types: validation, normalization, sampling."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annobias import (
    AnnotationSet,
    CorrectionParams,
    DatasetMeta,
    DegenerateDistributionError,
    LabelDistribution,
    SimulationParams,
    TransitionMatrix,
    acceptance_probability,
    argmax_class,
    bias_correct,
    normalize,
    repair_labels,
    sample_class,
    simulate_annotation,
    soft_gt_from_annotations,
    substream,
)
from annobias import core

positive_vectors = st.lists(
    st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=8
).map(np.asarray)


class TestLabelDistribution:
    def test_valid_construction(self):
        d = LabelDistribution([0.5, 0.3, 0.2])
        assert d.num_classes == 3
        assert len(d) == 3
        assert d[1] == 0.3

    def test_sum_within_tight_tolerance_kept_verbatim(self):
        # Entries whose sum is off by well under 1e-9 must not be rescaled.
        vals = np.array([0.5, 0.5 - 5e-10])
        d = LabelDistribution(vals)
        assert d.probs[0] == vals[0]
        assert d.probs[1] == vals[1]

    def test_sum_within_loose_tolerance_renormalized(self):
        d = LabelDistribution([0.5, 0.5 + 5e-7])
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_sum_too_far_off_rejected(self):
        with pytest.raises(DegenerateDistributionError, match="not normalizable"):
            LabelDistribution([0.5, 0.4])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            LabelDistribution([1.0])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            LabelDistribution([1.1, -0.1])

    def test_entry_above_one_rejected(self):
        with pytest.raises(ValueError):
            LabelDistribution([1.5, -0.5])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LabelDistribution([np.nan, 1.0])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            LabelDistribution([[0.5, 0.5]])

    def test_probs_read_only(self):
        d = LabelDistribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_allclose(self):
        a = LabelDistribution([0.5, 0.5])
        b = LabelDistribution([0.5, 0.5 + 1e-12])
        assert a.allclose(b)
        assert not a.allclose(LabelDistribution([0.6, 0.4]))


class TestNormalize:
    def test_basic(self):
        d = normalize(np.array([2.0, 1.0, 1.0]))
        np.testing.assert_array_equal(d.probs, [0.5, 0.25, 0.25])

    def test_all_mass_on_one_class(self):
        d = normalize(np.array([0.0, 0.0, 5.0]))
        np.testing.assert_array_equal(d.probs, [0.0, 0.0, 1.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateDistributionError, match="degenerate"):
            normalize(np.zeros(3))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.array([1.0, -0.5, 0.5]))

    @given(positive_vectors, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariant(self, v, c):
        np.testing.assert_allclose(
            normalize(v).probs, normalize(c * v).probs, atol=1e-12
        )


class TestSoftGtFromAnnotations:
    def test_counts_to_frequencies(self):
        d = soft_gt_from_annotations(AnnotationSet.from_counts([3, 1, 0]))
        np.testing.assert_array_equal(d.probs, [0.75, 0.25, 0.0])

    def test_unanimous(self):
        d = soft_gt_from_annotations(AnnotationSet.from_counts([5, 0, 0]))
        np.testing.assert_array_equal(d.probs, [1.0, 0.0, 0.0])

    def test_uniform(self):
        d = soft_gt_from_annotations(AnnotationSet.from_counts([1, 1, 1, 1]))
        np.testing.assert_allclose(d.probs, 0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            soft_gt_from_annotations(AnnotationSet.from_counts([0, 0]))


class TestArgmaxClass:
    def test_unique_max(self):
        assert argmax_class(np.array([0.1, 0.7, 0.2])) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert argmax_class(np.array([0.5, 0.5])) == 0
        assert argmax_class(np.array([0.2, 0.4, 0.4])) == 1

    def test_last_class(self):
        assert argmax_class(np.array([0.0, 0.0, 1.0])) == 2

    @given(positive_vectors, st.floats(min_value=1e-3, max_value=1e3))
    def test_rescale_invariant(self, v, c):
        assert argmax_class(v) == argmax_class(c * v)


class TestSampleClass:
    def test_point_mass_always_hits_it(self):
        rng = substream(0, "sample-point")
        d = LabelDistribution([1.0, 0.0, 0.0])
        assert all(sample_class(d, rng) == 0 for _ in range(50))
        d = LabelDistribution([0.0, 1.0])
        assert all(sample_class(d, rng) == 1 for _ in range(50))

    def test_fair_coin_frequency(self):
        rng = substream(1, "sample-coin")
        d = LabelDistribution([0.5, 0.5])
        n = 100_000
        hits = sum(sample_class(d, rng) for _ in range(n))
        assert abs(hits / n - 0.5) <= 0.005  # ~3 sigma for a fair coin

    def test_chi_square_convergence(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = substream(2, "sample-chi2")
        d = LabelDistribution([0.35, 0.25, 0.2, 0.15, 0.05])
        n = 100_000
        counts = np.zeros(5, dtype=np.int64)
        for _ in range(n):
            counts[sample_class(d, rng)] += 1
        res = scipy_stats.chisquare(counts, f_exp=n * np.asarray(d.probs))
        assert res.pvalue > 0.001

    def test_zero_probability_class_never_drawn(self):
        rng = substream(3, "sample-zero")
        d = LabelDistribution([0.5, 0.0, 0.5])
        draws = {sample_class(d, rng) for _ in range(2000)}
        assert 1 not in draws

    def test_uniform_past_a_short_cdf_draws_the_last_class_with_mass(self):
        # stored as given: the cumsum tops out a hair below 1, so a uniform
        # in the gap passes every class; the draw takes class 1, the last
        # with mass, never the zero-mass class 2
        d = LabelDistribution([0.5, 0.4999999999, 0.0])
        assert d.probs[1] == 0.4999999999
        u = 0.99999999995
        assert d.probs.cumsum()[-1] < u
        assert core._draw_class(d.probs[None], np.array([u])).tolist() == [1]
        rows = np.array([d.probs, [0.2, 0.3, 0.5], d.probs])
        got = core._draw_class(rows, np.array([u, u, 0.1]))
        assert got.tolist() == [1, 2, 0]

        class FixedUniform:
            def random(self):
                return u

        assert sample_class(d, FixedUniform()) == 1


class TestAnnotationSet:
    def test_from_counts(self):
        a = AnnotationSet.from_counts([3, 1, 0])
        assert a.total == 4
        np.testing.assert_array_equal(a.counts, [3, 1, 0])

    def test_tally(self):
        a = AnnotationSet.tally([0, 1, 0, 0, 2], num_classes=3)
        np.testing.assert_array_equal(a.counts, [3, 1, 1])
        assert a.total == 5

    def test_tally_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AnnotationSet.tally([0, 3], num_classes=3)
        with pytest.raises(ValueError):
            AnnotationSet.tally([-1], num_classes=3)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            AnnotationSet.from_counts([2, -1])

    def test_from_counts_rejects_what_the_constructor_rejects(self):
        with pytest.raises(ValueError, match="annotation counts must be integers"):
            AnnotationSet.from_counts([1.5, 2.0])


GT3 = LabelDistribution([0.2, 0.3, 0.5])
TALLY3 = AnnotationSet.from_counts([1, 2, 3])
T3 = TransitionMatrix.identity(3)
SIM, CORR = SimulationParams(delta=0.1), CorrectionParams()


@pytest.mark.parametrize(
    "call",
    [
        lambda: acceptance_probability(GT3, 2.9, SIM),
        lambda: bias_correct(TALLY3, 0.7, CORR),
        lambda: repair_labels(TALLY3.counts[None], [1.9], T3, CORR),
        lambda: simulate_annotation(GT3, 1.5, SIM, np.random.default_rng(0)),
    ],
    ids=["acceptance_probability", "bias_correct", "repair_labels", "simulate"],
)
def test_non_integer_proposal_is_refused(call):
    # truncation would answer for another proposal: 2.9 for 2, 0.7 for 0
    with pytest.raises(TypeError):
        call()


def test_integer_proposals_of_any_kind_are_taken():
    counts = TALLY3.counts[None]
    want = repair_labels(counts, [2], T3, CORR)
    for proposals in (np.array([2], np.uint8), np.array([2], np.int32)):
        np.testing.assert_array_equal(repair_labels(counts, proposals, T3, CORR), want)
    assert repair_labels(np.empty((0, 3), np.int64), [], T3, CORR).shape == (0, 3)
    want = acceptance_probability(GT3, 2, SIM)
    assert acceptance_probability(GT3, np.int64(2), SIM) == want


class TestTransitionMatrix:
    def test_identity(self):
        t = TransitionMatrix.identity(3)
        np.testing.assert_array_equal(t.rows, np.eye(3))
        np.testing.assert_array_equal(t.row(1), [0.0, 1.0, 0.0])

    def test_strict_constructor_rejects_bad_row(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.6, 0.3], [0.5, 0.5]]))

    def test_from_rows_renormalizes_within_tolerance(self):
        t = TransitionMatrix.from_rows(
            np.array([[0.7, 0.299], [0.2, 0.801]]), row_tol=2e-2
        )
        np.testing.assert_allclose(t.rows.sum(axis=1), 1.0, atol=1e-12)

    def test_from_rows_rejects_outside_tolerance(self):
        with pytest.raises(ValueError):
            TransitionMatrix.from_rows(np.array([[0.5, 0.4], [0.5, 0.5]]), row_tol=2e-2)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.5, 0.5]]))

    def test_num_classes(self):
        assert TransitionMatrix.identity(4).num_classes == 4


class TestDatasetMeta:
    def test_defaults(self):
        m = DatasetMeta(("a", "b", "c"))
        assert m.delta == 0.1
        assert m.upper_bound == 0.99
        assert m.mu == 0.75
        assert m.num_classes == 3

    def test_name_lookup(self):
        m = DatasetMeta(("cat", "dog"))
        assert m.index_of("dog") == 1
        assert m.name_of(0) == "cat"
        with pytest.raises(KeyError):
            m.index_of("bird")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            DatasetMeta(("a", "a"))

    def test_delta_must_stay_below_upper_bound(self):
        with pytest.raises(ValueError):
            DatasetMeta(("a", "b"), delta=0.99, upper_bound=0.99)
        with pytest.raises(ValueError):
            DatasetMeta(("a", "b"), delta=-0.1)

    def test_upper_bound_below_one(self):
        with pytest.raises(ValueError):
            DatasetMeta(("a", "b"), upper_bound=1.0)

    def test_mu_range(self):
        with pytest.raises(ValueError):
            DatasetMeta(("a", "b"), mu=1.5)


@settings(max_examples=50)
@given(positive_vectors)
def test_sampled_classes_always_in_range(v):
    d = normalize(v)
    rng = substream(9, "sample-range")
    for _ in range(20):
        k = sample_class(d, rng)
        assert 0 <= k < d.num_classes
        assert d.probs[k] > 0.0


def _same_float(got: float, want: float) -> bool:
    """Equal bits, any NaN matching any NaN."""
    return got.hex() == want.hex() or (math.isnan(got) and math.isnan(want))


@st.composite
def _score_like_samples(draw):
    """1-3 000 floats from one of the laws a mean meets, or subnormals."""
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    law = draw(st.sampled_from(["uniform", "normal", "lognormal", "cauchy", "subnormal"]))
    if law == "uniform":
        values = rng.random(n)
    elif law == "normal":  # scales across 600 decades
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
    elif law == "lognormal":
        values = rng.lognormal(0.0, 5.0, n)
    elif law == "cauchy":
        values = rng.standard_cauchy(n)
    else:
        values = rng.integers(-(2**52), 2**52, n) * 5e-324
    return values.tolist()


class TestExactMean:
    """``core._exact_mean`` against ``statistics.mean``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_score_like_samples())
    def test_equals_statistics_mean_on_sampled_laws(self, values):
        assert core._exact_mean(values).hex() == statistics.mean(values).hex()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    def test_equals_statistics_mean_on_any_finite_floats(self, values):
        assert core._exact_mean(values).hex() == statistics.mean(values).hex()

    def test_takes_an_array(self):
        values = np.random.default_rng(2).standard_cauchy(5000)
        want = statistics.mean(values.tolist())
        assert core._exact_mean(values).hex() == want.hex()

    @pytest.mark.parametrize(
        "values, want",
        [
            ([-0.0], 0.0),
            ([-0.0, -0.0, 0.0], 0.0),
            ([5e-324] * 3, 5e-324),
            ([5e-324, 0.0], 0.0),  # half the least subnormal rounds to even
            ([5e-324, 5e-324, 0.0], 5e-324),
            ([math.inf, 1.0], math.inf),
            ([-math.inf, 2.0], -math.inf),
            ([math.inf, -math.inf], math.nan),
            ([math.nan, 1.0], math.nan),
            ([1.0, math.inf, math.nan], math.nan),
        ],
    )
    def test_edge_values_follow_statistics_mean(self, values, want):
        got = core._exact_mean(values)
        assert _same_float(got, want)
        assert _same_float(got, statistics.mean(values))
