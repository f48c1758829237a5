"""Offset estimation: law inversion, banded records, two-round logs."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annobias import (
    AcceptanceRecord,
    CalibrationError,
    LabelDistribution,
    SimulationParams,
    acceptance_probability,
    delta_from_acceptance,
    estimate_delta_banded,
    estimate_delta_two_proposals,
)
from annobias.calibration import two_proposal_candidates
from annobias.harness.formats import LogEntry, acceptance_records_from_log

from conftest import banded_campaign, two_proposal_dataset

GT3 = LabelDistribution([0.3, 0.5, 0.2])


def banded_records(seed, delta):
    """Annotation records whose proposal mass always lies in (0.2, 0.4)."""
    dataset, entries = banded_campaign(seed, delta)
    return acceptance_records_from_log(entries, dataset.gt_by_id())


class TestDeltaFromAcceptance:
    def test_zero_mass_returns_the_rate_itself(self):
        assert delta_from_acceptance(0.1, 0.0) == 0.1

    def test_half_mass_half_way(self):
        assert delta_from_acceptance(0.545, 0.5) == pytest.approx(0.1, abs=1e-12)

    def test_rate_equal_to_mass_is_almost_zero_offset(self):
        assert delta_from_acceptance(0.3, 0.3) == pytest.approx(
            0.003 / 0.7, abs=1e-12
        )

    def test_full_mass_is_undefined(self):
        with pytest.raises(CalibrationError, match="zero denominator"):
            delta_from_acceptance(0.99, 1.0)

    def test_argument_ranges(self):
        with pytest.raises(ValueError, match="outside"):
            delta_from_acceptance(1.5, 0.5)
        with pytest.raises(ValueError, match="outside"):
            delta_from_acceptance(-0.1, 0.5)
        with pytest.raises(ValueError, match="outside"):
            delta_from_acceptance(0.5, 1.5)

    def test_unclamped_below_zero(self):
        # rejected-at-high-mass records produce negative raw values
        assert delta_from_acceptance(0.0, 0.3) < 0.0

    @given(
        st.floats(min_value=0.0, max_value=0.95),
        st.floats(min_value=0.0, max_value=0.99),
    )
    def test_inverts_the_acceptance_law(self, delta, p):
        gt = LabelDistribution([p, 1.0 - p])
        a = acceptance_probability(gt, 0, SimulationParams(delta=delta))
        assert delta_from_acceptance(a, gt[0]) == pytest.approx(delta, abs=1e-10)


@pytest.mark.parametrize("proposal, annotated", [(1.5, 0), (1, 0.9)])
def test_acceptance_record_refuses_non_integer_classes(proposal, annotated):
    # int() once stored AcceptanceRecord("x", 1.5, 0.9, gt) as proposal 1
    with pytest.raises(TypeError):
        AcceptanceRecord("x", proposal, annotated, GT3)


class TestEstimateDeltaBanded:
    def test_recovers_simulated_offset(self):
        records = banded_records(seed=0, delta=0.2)
        est = estimate_delta_banded(records, rescale=1.0)
        assert abs(est - 0.2) <= 0.05

    def test_all_rejected_clamps_to_zero(self):
        records = [
            AcceptanceRecord(f"img_{i}", 0, 1, GT3) for i in range(10)
        ]
        assert estimate_delta_banded(records, n_target=1, rescale=1.0) == 0.0

    def test_all_accepted_clamps_to_one(self):
        # raw inversion at mass 0.3 gives (1 - 0.297)/0.7, slightly above 1
        records = [
            AcceptanceRecord(f"img_{i}", 0, 0, GT3) for i in range(10)
        ]
        assert estimate_delta_banded(records, n_target=1, rescale=1.0) == 1.0

    def test_no_in_band_records_is_an_error(self):
        out_of_band = AcceptanceRecord("img", 1, 1, GT3)  # mass 0.5
        with pytest.raises(CalibrationError, match="insufficient calibration data"):
            estimate_delta_banded([out_of_band], n_target=1)

    def test_empty_records_is_an_error(self):
        with pytest.raises(CalibrationError, match="insufficient calibration data"):
            estimate_delta_banded([], n_target=1)

    def test_band_is_open_below_closed_above(self):
        at_lower = AcceptanceRecord("a", 0, 0, LabelDistribution([0.2, 0.5, 0.3]))
        with pytest.raises(CalibrationError):
            estimate_delta_banded([at_lower], n_target=1)
        at_upper = AcceptanceRecord("a", 0, 0, LabelDistribution([0.4, 0.4, 0.2]))
        assert estimate_delta_banded([at_upper], n_target=1, rescale=1.0) == 1.0

    def test_few_images_warn(self):
        records = [AcceptanceRecord("only", 0, 0, GT3)] * 30
        with pytest.warns(UserWarning, match="1 in-band images"):
            estimate_delta_banded(records, rescale=1.0)

    def test_enough_images_do_not_warn(self, recwarn):
        records = banded_records(seed=0, delta=0.2)
        estimate_delta_banded(records, rescale=1.0)
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_monotone_in_acceptance_count(self):
        estimates = []
        for accepts in range(11):
            records = [
                AcceptanceRecord(f"i{j}", 0, 0 if j < accepts else 1, GT3)
                for j in range(10)
            ]
            estimates.append(
                estimate_delta_banded(records, n_target=1, rescale=1.0)
            )
        assert estimates == sorted(estimates)
        assert estimates[0] == 0.0
        assert estimates[-1] == 1.0

    def test_rescale_multiplies_then_clamps(self):
        records = [
            AcceptanceRecord(f"i{j}", 0, 0 if j < 5 else 1, GT3)
            for j in range(10)
        ]
        base = estimate_delta_banded(records, n_target=1, rescale=1.0)
        assert base == pytest.approx(0.29, abs=1e-12)
        scaled = estimate_delta_banded(records, n_target=1, rescale=1.3)
        assert scaled == pytest.approx(1.3 * base, abs=1e-12)
        assert estimate_delta_banded(records, n_target=1, rescale=10.0) == 1.0

    @pytest.mark.parametrize("rescale", [math.nan, math.inf, -0.5])
    def test_rescale_must_be_finite_and_non_negative(self, rescale):
        records = [AcceptanceRecord(f"i{j}", 0, j % 2, GT3) for j in range(10)]
        with pytest.raises(ValueError, match="rescale must be a finite number"):
            estimate_delta_banded(records, n_target=1, rescale=rescale)

    def test_rescale_defaults_to_neutral(self):
        records = [
            AcceptanceRecord(f"i{j}", 0, 0 if j < 5 else 1, GT3)
            for j in range(10)
        ]
        assert estimate_delta_banded(records, n_target=1) == estimate_delta_banded(
            records, n_target=1, rescale=1.0
        )

    def test_parameter_validation(self):
        rec = [AcceptanceRecord("i", 0, 0, GT3)]
        with pytest.raises(ValueError, match="invalid band"):
            estimate_delta_banded(rec, band=(0.4, 0.2))
        with pytest.raises(ValueError, match="invalid band"):
            estimate_delta_banded(rec, band=(-0.1, 0.3))
        with pytest.raises(ValueError, match="rescale"):
            estimate_delta_banded(rec, rescale=-0.5)

    @pytest.mark.parametrize("band", [(0.2,), (0.2, 0.4, 0.9), ()])
    def test_band_needs_exactly_two_values(self, band):
        # refused, not cut to its first two values or indexed past its end
        rec = [AcceptanceRecord("i", 0, 0, GT3)]
        with pytest.raises(ValueError, match="invalid band"):
            estimate_delta_banded(rec, band=band, n_target=1)


def _record(counts_a, counts_b, rho_a=0, rho_b=1, image_id="img"):
    """Log rows of one image: round ``a`` under ``rho_a`` with tally
    ``counts_a``, then round ``b`` under ``rho_b`` with tally ``counts_b``."""
    return [
        LogEntry(image_id, rho, c)
        for rho, counts in ((rho_a, counts_a), (rho_b, counts_b))
        for c in np.repeat(np.arange(len(counts)), counts).tolist()
    ]


class TestTwoProposalCandidates:
    def test_first_round_fully_accepted_reads_off_second_rate(self):
        rec = _record([20, 0, 0], [17, 3, 0])
        assert two_proposal_candidates(rec) == [pytest.approx(0.15)]

    def test_first_round_fully_rejected_pins_zero(self):
        rec = _record([0, 20, 0], [10, 10, 0])
        assert two_proposal_candidates(rec) == [0.0]

    def test_second_round_fully_accepted_reads_off_first_rate(self):
        rec = _record([12, 8, 0], [0, 20, 0])
        assert two_proposal_candidates(rec) == [pytest.approx(0.6)]

    def test_second_round_fully_rejected_pins_zero(self):
        rec = _record([12, 8, 0], [20, 0, 0])
        assert two_proposal_candidates(rec) == [0.0]

    def test_generic_record_matches_hand_computation(self):
        # acc_a = 0.6; rejected second-round shares (0.4, -, 0.4, 0.2);
        # pooled outside mass e = (0.6, 0.4) over classes 2 and 3;
        # mean ratio = (2/3 + 1/2)/2 = 7/12, so the law inverts to
        # (0.6 - 0.99 * 5/12) / (7/12) = 2.25/7.
        rec = _record([6, 2, 1, 1], [2, 5, 2, 1])
        (candidate,) = two_proposal_candidates(rec)
        assert candidate == pytest.approx(2.25 / 7, rel=1e-12)

    def test_no_annotations_outside_proposals_is_nan(self):
        rec = _record([3, 1, 0], [1, 3, 0])
        (candidate,) = two_proposal_candidates(rec)
        assert math.isnan(candidate)

    def test_zero_rejected_mass_outside_is_nan(self):
        rec = _record([6, 2, 1, 1], [5, 5, 0, 0])
        (candidate,) = two_proposal_candidates(rec)
        assert math.isnan(candidate)


def _reference_law(ca, cb, rho_a, rho_b, upper_bound):
    """The per-image two-proposal law, written out on the two round
    tallies ``ca`` and ``cb`` (``float64[K]``), as it was before it ran on
    log columns."""
    acc_a = ca[rho_a] / int(ca.sum())
    acc_b = cb[rho_b] / int(cb.sum())
    if acc_a == 1.0:
        return acc_b
    if acc_a == 0.0:
        return 0.0
    if acc_b == 1.0:
        return acc_a
    if acc_b == 0.0:
        return 0.0
    c_prime = cb / (int(cb.sum()) - cb[rho_b])
    pooled = ca + cb
    pooled[rho_a] = 0.0
    pooled[rho_b] = 0.0
    outside_total = float(pooled.sum())
    if outside_total <= 0.0:
        return float("nan")
    e = pooled / outside_total
    ratios = [
        c_prime[k] / e[k]
        for k in range(ca.size)
        if k not in (rho_a, rho_b) and e[k] > 0.0
    ]
    p_not_rho_a = float(np.mean(ratios)) if ratios else 0.0
    if p_not_rho_a <= 0.0:
        return float("nan")
    return (acc_a - upper_bound * (1.0 - p_not_rho_a)) / p_not_rho_a


def _reference_candidates(entries, k, upper_bound):
    """Group log rows by image, then by proposal, in order of first
    appearance; tally each round over ``k`` classes; apply the law."""
    rounds = {}
    for image_id, proposal, annotated in entries:
        rounds.setdefault(image_id, {}).setdefault(proposal, []).append(annotated)
    out = []
    for by_proposal in rounds.values():
        (rho_a, a), (rho_b, b) = by_proposal.items()
        ca, cb = (np.bincount(c, minlength=k).astype(np.float64) for c in (a, b))
        out.append(_reference_law(ca, cb, rho_a, rho_b, upper_bound))
    return out


@st.composite
def _two_round_logs(draw):
    """``(K, rows)``: a two-round log over K = 2..12 classes whose rows are
    shuffled, so images and rounds interleave.  Each round's tally puts mass
    only on its proposal, only off it, only on the image's two proposals, or
    anywhere, so every extreme-rate branch and the image with no annotation
    outside both proposals come up."""
    k = draw(st.integers(2, 12))
    rows = []
    for i in range(draw(st.integers(1, 6))):
        pair = draw(st.permutations(range(k)))[:2]
        for rho in pair:
            off = [c for c in range(k) if c != rho]
            allowed = draw(st.sampled_from([[rho], off, pair, list(range(k))]))
            n = len(allowed)
            counts = np.zeros(k, np.int64)
            counts[allowed] = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
            counts[allowed[0]] += counts.sum() == 0  # every round is annotated
            classes = np.repeat(np.arange(k), counts).tolist()
            rows += [(f"img_{i}", rho, c) for c in classes]
    order = draw(st.permutations(range(len(rows))))
    return k, [LogEntry(*rows[j]) for j in order]


# one image per branch: first round all accepted, first round all rejected,
# second round all accepted, second round all rejected, nothing outside
_BRANCHES = [
    *_record([20, 0, 0], [17, 3, 0], image_id="a1"),
    *_record([0, 20, 0], [10, 10, 0], image_id="a0"),
    *_record([12, 8, 0], [0, 20, 0], image_id="b1"),
    *_record([12, 8, 0], [20, 0, 0], image_id="b0"),
    *_record([3, 1, 0], [1, 3, 0], image_id="nan"),
]


class TestTwoProposalLaw:
    @settings(max_examples=300, deadline=None)
    @given(log=_two_round_logs(), upper_bound=st.floats(0.5, 0.999))
    @example(log=(3, _BRANCHES), upper_bound=0.99)
    def test_equals_the_per_image_reference_bit_for_bit(self, log, upper_bound):
        k, entries = log
        got = two_proposal_candidates(entries, upper_bound)
        want = _reference_candidates(entries, k, upper_bound)
        assert list(map(float.hex, got)) == list(map(float.hex, want))

    @pytest.mark.parametrize("proposals", [(0,), (0, 1, 2)])
    def test_protocol_error_names_the_image_and_its_proposal_count(self, proposals):
        entries = _record([1, 1, 0], [1, 1, 0], image_id="ok")
        entries += [LogEntry("img", rho, rho) for rho in proposals]
        with pytest.raises(CalibrationError) as e:
            two_proposal_candidates(entries)
        assert str(e.value) == (
            f"image 'img' has {len(proposals)} distinct proposals in the log; "
            f"the two-round protocol needs exactly 2"
        )

    @pytest.mark.parametrize(
        "row, error",
        [
            (("img", 1.0, 0), TypeError),
            (("img", 1, 0.5), TypeError),
            (("img", -1, 0), ValueError),
            (("img", 1, -2), ValueError),
        ],
    )
    def test_class_index_must_be_an_integer_at_least_zero(self, row, error):
        with pytest.raises(error):
            two_proposal_candidates([LogEntry("img", 0, 0), LogEntry(*row)])


class TestEstimateDeltaTwoProposals:
    def test_recovers_simulated_offset(self):
        records = two_proposal_dataset(seed=0, delta=0.1)
        est = estimate_delta_two_proposals(records)
        assert abs(est - 0.1) <= 0.1

    def test_median_over_surviving_candidates(self):
        records = [
            *_record([20, 0, 0], [17, 3, 0], image_id="x"),  # 0.15
            *_record([0, 20, 0], [10, 10, 0], image_id="y"),  # 0.0
            *_record([6, 2, 1, 1], [2, 5, 2, 1], image_id="z"),  # 2.25/7
        ]
        est = estimate_delta_two_proposals(records)
        assert est == pytest.approx(0.15)

    def test_threshold_filters_high_candidates(self):
        records = [
            *_record([20, 0, 0], [11, 9, 0], image_id="x"),  # 0.45
            *_record([20, 0, 0], [2, 18, 0], image_id="y"),  # 0.9, dropped at 0.8
        ]
        assert estimate_delta_two_proposals(records) == pytest.approx(0.45)
        widened = estimate_delta_two_proposals(records, threshold=0.95)
        assert widened == pytest.approx((0.45 + 0.9) / 2)

    def test_nan_candidates_are_dropped(self):
        records = [
            *_record([3, 1, 0], [1, 3, 0], image_id="x"),  # nan
            *_record([20, 0, 0], [17, 3, 0], image_id="y"),  # 0.15
        ]
        assert estimate_delta_two_proposals(records) == pytest.approx(0.15)

    def test_no_records_is_an_error(self):
        with pytest.raises(CalibrationError, match="estimator degenerate"):
            estimate_delta_two_proposals([])

    def test_saturated_studies_refuse_an_estimate(self):
        # both rounds always accepted: the only candidate is 1.0, above
        # the plausibility threshold
        records = _record([20, 0, 0], [0, 20, 0])
        with pytest.raises(CalibrationError, match="no finite candidates below"):
            estimate_delta_two_proposals(records)
