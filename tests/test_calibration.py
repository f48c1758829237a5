"""Offset estimation: law inversion, banded records, two-proposal records."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from annobias import (
    AcceptanceRecord,
    AnnotationSet,
    CalibrationError,
    LabelDistribution,
    SimulationParams,
    TwoProposalRecord,
    acceptance_probability,
    delta_from_acceptance,
    estimate_delta_banded,
    estimate_delta_two_proposals,
)
from annobias.calibration import two_proposal_candidates
from annobias.harness.formats import acceptance_records_from_log

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

    def test_rescale_defaults_to_neutral(self):
        records = [
            AcceptanceRecord(f"i{j}", 0, 0 if j < 5 else 1, GT3)
            for j in range(10)
        ]
        assert estimate_delta_banded(records, n_target=1) == estimate_delta_banded(
            records, n_target=1, rescale=1.0
        )

    def test_median_aggregate(self):
        records = [
            AcceptanceRecord("i0", 0, 0, GT3),
            AcceptanceRecord("i1", 0, 0, GT3),
            AcceptanceRecord("i2", 0, 1, GT3),
        ]
        est = estimate_delta_banded(
            records, n_target=1, rescale=1.0, aggregate="median"
        )
        assert est == 1.0  # median picks an accepted record's (clamped) value

    def test_parameter_validation(self):
        rec = [AcceptanceRecord("i", 0, 0, GT3)]
        with pytest.raises(ValueError, match="invalid band"):
            estimate_delta_banded(rec, band=(0.4, 0.2))
        with pytest.raises(ValueError, match="invalid band"):
            estimate_delta_banded(rec, band=(-0.1, 0.3))
        with pytest.raises(ValueError, match="aggregate"):
            estimate_delta_banded(rec, aggregate="max")
        with pytest.raises(ValueError, match="rescale"):
            estimate_delta_banded(rec, rescale=-0.5)


class TestTwoProposalRecordValidation:
    def test_identical_proposals_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            TwoProposalRecord(
                "x",
                1,
                1,
                AnnotationSet.from_counts([1, 1, 0]),
                AnnotationSet.from_counts([0, 2, 0]),
            )

    def test_round_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree on class count"):
            TwoProposalRecord(
                "x",
                0,
                1,
                AnnotationSet.from_counts([1, 1, 0]),
                AnnotationSet.from_counts([1, 1]),
            )

    def test_empty_round_rejected(self):
        with pytest.raises(ValueError, match="at least one annotation"):
            TwoProposalRecord(
                "x",
                0,
                1,
                AnnotationSet.from_counts([1, 1, 0]),
                AnnotationSet.from_counts([0, 0, 0]),
            )

    def test_out_of_range_proposal_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            TwoProposalRecord(
                "x",
                0,
                5,
                AnnotationSet.from_counts([1, 1, 0]),
                AnnotationSet.from_counts([0, 2, 0]),
            )


def _record(counts_a, counts_b, rho_a=0, rho_b=1):
    return TwoProposalRecord(
        "img",
        rho_a,
        rho_b,
        AnnotationSet.from_counts(counts_a),
        AnnotationSet.from_counts(counts_b),
    )


class TestTwoProposalCandidates:
    def test_first_round_fully_accepted_reads_off_second_rate(self):
        rec = _record([20, 0, 0], [17, 3, 0])
        assert two_proposal_candidates([rec]) == [pytest.approx(0.15)]

    def test_first_round_fully_rejected_pins_zero(self):
        rec = _record([0, 20, 0], [10, 10, 0])
        assert two_proposal_candidates([rec]) == [0.0]

    def test_second_round_fully_accepted_reads_off_first_rate(self):
        rec = _record([12, 8, 0], [0, 20, 0])
        assert two_proposal_candidates([rec]) == [pytest.approx(0.6)]

    def test_second_round_fully_rejected_pins_zero(self):
        rec = _record([12, 8, 0], [20, 0, 0])
        assert two_proposal_candidates([rec]) == [0.0]

    def test_generic_record_matches_hand_computation(self):
        # acc_a = 0.6; rejected second-round shares (0.4, -, 0.4, 0.2);
        # pooled outside mass e = (0.6, 0.4) over classes 2 and 3;
        # mean ratio = (2/3 + 1/2)/2 = 7/12, so the law inverts to
        # (0.6 - 0.99 * 5/12) / (7/12) = 2.25/7.
        rec = _record([6, 2, 1, 1], [2, 5, 2, 1])
        (candidate,) = two_proposal_candidates([rec])
        assert candidate == pytest.approx(2.25 / 7, rel=1e-12)

    def test_no_annotations_outside_proposals_is_nan(self):
        rec = _record([3, 1, 0], [1, 3, 0])
        (candidate,) = two_proposal_candidates([rec])
        assert math.isnan(candidate)

    def test_zero_rejected_mass_outside_is_nan(self):
        rec = _record([6, 2, 1, 1], [5, 5, 0, 0])
        (candidate,) = two_proposal_candidates([rec])
        assert math.isnan(candidate)


class TestEstimateDeltaTwoProposals:
    def test_recovers_simulated_offset(self):
        records = two_proposal_dataset(seed=0, delta=0.1)
        est = estimate_delta_two_proposals(records)
        assert abs(est - 0.1) <= 0.1

    def test_median_over_surviving_candidates(self):
        records = [
            _record([20, 0, 0], [17, 3, 0]),  # 0.15
            _record([0, 20, 0], [10, 10, 0]),  # 0.0
            _record([6, 2, 1, 1], [2, 5, 2, 1]),  # 2.25/7
        ]
        est = estimate_delta_two_proposals(records)
        assert est == pytest.approx(0.15)

    def test_threshold_filters_high_candidates(self):
        records = [
            _record([20, 0, 0], [11, 9, 0]),  # 0.45
            _record([20, 0, 0], [2, 18, 0]),  # 0.9, dropped at default 0.8
        ]
        assert estimate_delta_two_proposals(records) == pytest.approx(0.45)
        widened = estimate_delta_two_proposals(records, threshold=0.95)
        assert widened == pytest.approx((0.45 + 0.9) / 2)

    def test_nan_candidates_are_dropped(self):
        records = [
            _record([3, 1, 0], [1, 3, 0]),  # nan
            _record([20, 0, 0], [17, 3, 0]),  # 0.15
        ]
        assert estimate_delta_two_proposals(records) == pytest.approx(0.15)

    def test_no_records_is_an_error(self):
        with pytest.raises(CalibrationError, match="estimator degenerate"):
            estimate_delta_two_proposals([])

    def test_saturated_studies_refuse_an_estimate(self):
        # both rounds always accepted: the only candidate is 1.0, above
        # the plausibility threshold
        records = [_record([20, 0, 0], [0, 20, 0])]
        with pytest.raises(CalibrationError, match="no finite candidates below"):
            estimate_delta_two_proposals(records)
