"""KL divergence, probability bins, bin-matrix distance, budget, comparison."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import annobias
from annobias import (
    AcceptanceRecord,
    BinMatrix,
    BudgetParams,
    LabelDistribution,
    SimulationParams,
    Strategy,
    aggregate_scores,
    bin_index,
    budget,
    build_bin_matrix,
    compare_strategies,
    kl_divergence,
    normalize,
    sod,
)
from annobias.calibration import (
    _EDGE_TOL,
    CalibrationError,
    _fit_banded,
)
from annobias.metrics import BIN_EDGES, NUM_BINS

from conftest import build_dataset, campaign_records


class TestKlDivergence:
    def test_identical_distributions_give_zero(self):
        d = LabelDistribution([0.5, 0.3, 0.2])
        assert kl_divergence(d, d) == 0.0
        sharp = LabelDistribution([1.0, 0.0])
        assert kl_divergence(sharp, sharp) == 0.0

    def test_point_mass_vs_coin(self):
        gt = LabelDistribution([1.0, 0.0])
        est = LabelDistribution([0.5, 0.5])
        assert kl_divergence(gt, est) == pytest.approx(math.log(2), abs=1e-12)

    def test_coin_vs_skewed(self):
        gt = LabelDistribution([0.5, 0.5])
        est = LabelDistribution([0.25, 0.75])
        assert kl_divergence(gt, est) == pytest.approx(0.1438, abs=1e-4)

    def test_empty_estimate_class_is_floored_not_infinite(self):
        gt = LabelDistribution([0.5, 0.5])
        est = LabelDistribution([1.0, 0.0])
        v = kl_divergence(gt, est)
        assert math.isfinite(v)
        # 0.5*ln(0.5/1) + 0.5*ln(0.5/1e-8)
        assert v == pytest.approx(0.5 * math.log(0.5) + 0.5 * math.log(0.5 / 1e-8), abs=1e-9)

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence(
                LabelDistribution([0.5, 0.5]), LabelDistribution([0.4, 0.3, 0.3])
            )

    def test_bad_epsilon_rejected(self):
        d = LabelDistribution([0.5, 0.5])
        with pytest.raises(ValueError):
            kl_divergence(d, d, epsilon=0.0)

    def test_nan_epsilon_rejected(self):
        d = LabelDistribution([0.5, 0.5])
        with pytest.raises(ValueError, match="epsilon"):
            kl_divergence(d, d, epsilon=float("nan"))

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
        st.data(),
    )
    def test_never_negative(self, w1, data):
        w2 = data.draw(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0),
                min_size=len(w1),
                max_size=len(w1),
            )
        )
        gt, est = normalize(np.asarray(w1)), normalize(np.asarray(w2))
        assert kl_divergence(gt, est) >= 0.0


class TestBinIndex:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.0, 0),
            (1e-13, 0),
            (0.05, 1),
            (0.2, 1),
            (0.21, 2),
            (0.4, 2),
            (0.5, 3),
            (0.6, 3),
            (0.8, 4),
            (0.81, 5),
            (1.0, 5),
        ],
    )
    def test_boundaries(self, p, expected):
        assert bin_index(p) == expected

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bin_index(-0.01)
        with pytest.raises(ValueError):
            bin_index(1.01)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_partition(self, p):
        b = bin_index(p)
        assert 0 <= b < NUM_BINS
        if b >= 2:
            assert p > BIN_EDGES[b - 2]


def _reference_bin(p):
    """Bin of ``p`` by the scalar comparisons the interval rule replaced."""
    if p < -_EDGE_TOL or p > 1.0 + _EDGE_TOL:
        return "outside"
    if p <= _EDGE_TOL:
        return 0
    for i, edge in enumerate(BIN_EDGES):
        if p <= edge + _EDGE_TOL:
            return i + 1
    return NUM_BINS - 1


def _reference_in_band(p, lo, hi):
    return lo + _EDGE_TOL < p <= hi + _EDGE_TOL


def _bin_or_outside(p):
    try:
        return bin_index(p)
    except ValueError:
        return "outside"


# every value within 1e-12 of an edge on a fine grid, plus the floats next
# to each tolerance-shifted edge
_EDGES = (0.0, *BIN_EDGES)
_NEAR_EDGES = sorted(
    {edge + k * 1e-13 for edge in _EDGES for k in range(-10, 11)}
    | {
        float(np.nextafter(edge + _EDGE_TOL, side))
        for edge in _EDGES
        for side in (-1.0, 2.0)
    }
)


_PROBS = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from(
    [p for p in _NEAR_EDGES if 0.0 <= p <= 1.0]
)


class TestIntervalRule:
    """bin_index, build_bin_matrix and band membership against the scalar rule."""

    @given(st.floats(min_value=0.0, max_value=1.0) | st.sampled_from(_NEAR_EDGES))
    def test_bin_index_matches_reference(self, p):
        assert _bin_or_outside(p) == _reference_bin(p)

    def test_bin_index_matches_reference_at_every_near_edge_value(self):
        for p in _NEAR_EDGES:
            assert _bin_or_outside(p) == _reference_bin(p), p

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            bin_index(float("nan"))

    @given(st.lists(st.tuples(_PROBS, st.booleans()), min_size=1, max_size=30))
    def test_bin_matrix_matches_reference(self, rows):
        records = [
            AcceptanceRecord(f"im{i}", 0, 0 if keep else 1, LabelDistribution([p, 1 - p]))
            for i, (p, keep) in enumerate(rows)
        ]
        expected = np.zeros((NUM_BINS, NUM_BINS), dtype=np.int64)
        for rec in records:
            row = _reference_bin(rec.gt[rec.proposal])
            expected[row, _reference_bin(rec.gt[rec.annotated])] += 1
        np.testing.assert_array_equal(build_bin_matrix(records).cells, expected)

    @given(
        st.lists(_PROBS, min_size=1, max_size=30),
        st.sampled_from([(0.2, 0.4), (0.0, 0.2), (0.4, 0.6), (0.8, 1.0), (0.0, 1.0)]),
    )
    def test_band_membership_matches_reference(self, probs, band):
        records = [
            AcceptanceRecord(f"im{i}", 0, 0, LabelDistribution([p, 1 - p]))
            for i, p in enumerate(probs)
        ]
        lo, hi = band
        expected = [r for r in records if _reference_in_band(r.gt[0], lo, hi)]

        def fit():
            masses = np.array([r.gt.probs[r.proposal] for r in records])
            accepted = np.array([r.accepted for r in records])
            keys = [r.image_id for r in records]
            return _fit_banded(masses, accepted, keys, band, 1, 1.0, "mean", 0.99)

        if not expected:
            with pytest.raises(CalibrationError, match="no records"):
                fit()
        elif any(r.gt[0] >= 1.0 for r in expected):
            # the inversion is undefined at mass 1
            with pytest.raises(CalibrationError, match="mass 1"):
                fit()
        else:
            assert [records[i] for i in fit()[1]] == expected


class TestBinMatrix:
    def test_single_record_lands_in_one_cell(self):
        gt = LabelDistribution([0.3, 0.5, 0.2])
        rec = AcceptanceRecord("im", 0, 1, gt)
        m = build_bin_matrix([rec])
        assert m.total == 1
        assert m.cells[2, 3] == 1
        assert m.cells.sum() == 1

    def test_accepted_records_fill_the_diagonal(self):
        gt = LabelDistribution([0.3, 0.5, 0.2])
        recs = [AcceptanceRecord("im", 1, 1, gt)] * 4
        m = build_bin_matrix(recs)
        assert m.cells[3, 3] == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_bin_matrix([])

    def test_cells_validation(self):
        with pytest.raises(ValueError):
            BinMatrix(np.zeros((3, 3), dtype=np.int64))
        bad = np.zeros((NUM_BINS, NUM_BINS), dtype=np.int64)
        bad[0, 0] = -1
        with pytest.raises(ValueError):
            BinMatrix(bad)
        frac = np.zeros((NUM_BINS, NUM_BINS))
        frac[0, 0] = 0.5
        with pytest.raises(ValueError):
            BinMatrix(frac)

    def test_row_normalized_leaves_empty_rows_zero(self):
        cells = np.zeros((NUM_BINS, NUM_BINS), dtype=np.int64)
        cells[2, 3] = 3
        cells[2, 1] = 1
        norm = BinMatrix(cells).row_normalized()
        np.testing.assert_allclose(norm[2], [0, 0.25, 0, 0.75, 0, 0])
        assert norm[0].sum() == 0.0


def _matrix_with(cells_spec):
    cells = np.zeros((NUM_BINS, NUM_BINS), dtype=np.int64)
    for (i, j), n in cells_spec.items():
        cells[i, j] = n
    return BinMatrix(cells)


class TestSod:
    def test_identical_matrices_have_zero_distance(self):
        m = _matrix_with({(2, 3): 5, (1, 1): 2})
        assert sod(m, m) == 0.0

    def test_one_moved_record_costs_one(self):
        a = _matrix_with({(2, 3): 5})
        b = _matrix_with({(2, 3): 4, (2, 4): 1})
        assert sod(a, b) == 1.0

    def test_normalized(self):
        a = _matrix_with({(2, 3): 100})
        b = _matrix_with({(2, 3): 99, (2, 4): 1})
        assert sod(a, b, normalized=True) == pytest.approx(0.01, abs=1e-15)

    def test_symmetric(self):
        a = _matrix_with({(2, 3): 5, (0, 0): 3})
        b = _matrix_with({(2, 3): 2, (1, 5): 6})
        assert sod(a, b) == sod(b, a)

    def test_unequal_totals_warn(self):
        a = _matrix_with({(2, 3): 5})
        b = _matrix_with({(2, 3): 6})
        with pytest.warns(UserWarning, match="different record counts"):
            v = sod(a, b)
        assert v == 0.5

    def test_bounded_by_total(self):
        a = _matrix_with({(0, 0): 7})
        b = _matrix_with({(5, 5): 7})
        assert sod(a, b) == 7.0
        assert sod(a, b, normalized=True) == 1.0


class TestBudget:
    def test_reference_point(self):
        p = BudgetParams(
            initial_supervision=0.2,
            pct_annotated=1.0,
            annotations_per_image=5,
            speedup=10,
        )
        assert budget(p) == 0.7

    def test_no_assisted_annotations(self):
        p = BudgetParams(1.0, 1.0, 0, 10)
        assert budget(p) == 1.0

    def test_no_speedup(self):
        p = BudgetParams(0.2, 0.2, 5, 1)
        assert budget(p) == pytest.approx(1.2, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            BudgetParams(-0.1, 1.0, 5, 10)
        with pytest.raises(ValueError):
            BudgetParams(0.2, 1.5, 5, 10)
        with pytest.raises(ValueError):
            BudgetParams(0.2, 1.0, -1, 10)
        with pytest.raises(ValueError):
            BudgetParams(0.2, 1.0, 5, 0.5)

    @pytest.mark.parametrize(
        "args,match",
        [
            ((0.2, 1.0, float("nan"), 10), "annotations_per_image"),
            ((0.2, 1.0, 5, float("nan")), "speedup"),
            ((float("nan"), 1.0, 5, 10), "initial_supervision"),
        ],
    )
    def test_nan_is_rejected(self, args, match):
        with pytest.raises(ValueError, match=match):
            BudgetParams(*args)

    @given(
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=1.0, max_value=50.0),
    )
    def test_monotone_decreasing_in_speedup(self, s1, s2):
        lo, hi = sorted((s1, s2))
        b_lo = budget(BudgetParams(0.2, 1.0, 5, lo))
        b_hi = budget(BudgetParams(0.2, 1.0, 5, hi))
        assert b_hi <= b_lo

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=20.0),
    )
    def test_monotone_increasing_in_annotations(self, n1, n2):
        lo, hi = sorted((n1, n2))
        assert budget(BudgetParams(0.2, 1.0, hi, 10)) >= budget(
            BudgetParams(0.2, 1.0, lo, 10)
        )


class TestCompareStrategies:
    def test_replaying_strategy_scores_zero(self):
        # One-hot soft labels make LIKELY reproduce each record's annotated
        # class exactly, so simulated and real bin matrices coincide.
        records = []
        for i, cls in enumerate([0, 1, 2, 1, 0]):
            gt = LabelDistribution(np.eye(3)[cls])
            records.append(AcceptanceRecord(f"im{i}", (cls + 1) % 3, cls, gt))
        result = compare_strategies(
            records, Strategy.LIKELY, SimulationParams(delta=0.1), 3, seed=7
        )
        assert result.sods == (0.0, 0.0, 0.0)
        assert result.mean == 0.0
        assert result.std == 0.0

    def test_deterministic_given_seed(self):
        ds = build_dataset(20, seed=3)
        records = campaign_records(ds, delta=0.1, annotations_per_image=3, seed=5)
        p = SimulationParams(delta=0.1)
        a = compare_strategies(records, Strategy.ACCEPT_GT, p, 3, seed=11)
        b = compare_strategies(records, Strategy.ACCEPT_GT, p, 3, seed=11)
        assert a == b

    def test_record_order_between_images_does_not_matter(self):
        ds = build_dataset(10, seed=3)
        records = campaign_records(ds, delta=0.1, annotations_per_image=2, seed=5)
        p = SimulationParams(delta=0.1)
        a = compare_strategies(records, Strategy.ACCEPT_GT, p, 2, seed=11)
        # group-preserving shuffle: records of each image keep their order
        reordered = sorted(records, key=lambda r: r.image_id, reverse=True)
        b = compare_strategies(reordered, Strategy.ACCEPT_GT, p, 2, seed=11)
        assert a.sods == b.sods

    def test_repeated_records_of_one_image_draw_independently(self):
        # Ten records of the same image must not all get the same simulated
        # class: each record has its own stream.
        gt = LabelDistribution([0.5, 0.3, 0.2])
        records = [AcceptanceRecord("same", 0, 0, gt)] * 10
        result = compare_strategies(
            records, Strategy.GT, SimulationParams(delta=0.1), 1, seed=13
        )
        # if all ten draws collapsed to one class, the distance to the
        # all-accepted reference would be 0 or exactly 10/10
        assert 0.0 < result.sods[0] < 1.0

    def test_record_api_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma (about 2 MB of RSS) on numpy 2.4; the
        # record API runs on records of two class counts in a fresh
        # interpreter and must leave it unloaded
        script = textwrap.dedent(
            """
            import sys
            import numpy
            if "numpy.ma" in sys.modules:
                sys.exit(3)  # this numpy imports numpy.ma eagerly
            from annobias import AcceptanceRecord, LabelDistribution
            from annobias import SimulationParams, Strategy
            from annobias import build_bin_matrix, compare_strategies
            gts = {k: LabelDistribution([0.5, 0.5] + [0.0] * (k - 2)) for k in (2, 3)}
            records = [
                AcceptanceRecord(f"im{i}", i % k, 0, gts[k])
                for i, k in enumerate([2, 3, 2, 3, 3])
            ]
            p = SimulationParams(delta=0.1)
            compare_strategies(records, Strategy.ACCEPT_GT, p, 2, seed=1)
            build_bin_matrix(records)
            assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
            """
        )
        src = str(Path(annobias.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        if done.returncode == 3:
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        assert done.returncode == 0, done.stderr

    def test_single_record_works(self):
        gt = LabelDistribution([0.5, 0.3, 0.2])
        result = compare_strategies(
            [AcceptanceRecord("im", 0, 1, gt)],
            Strategy.RANDOM,
            SimulationParams(delta=0.1),
            3,
            seed=1,
        )
        assert len(result.sods) == 3
        assert result.std >= 0.0

    def test_reference_log_prefers_matching_strategy(self):
        ds = build_dataset(60, seed=23, jitter=0.4)
        records = campaign_records(
            ds, delta=0.1, annotations_per_image=5, seed=44, proposal_mode="random"
        )
        p = SimulationParams(delta=0.1)
        acc = compare_strategies(records, Strategy.ACCEPT_GT, p, 3, seed=44)
        rnd = compare_strategies(records, Strategy.RANDOM, p, 3, seed=44)
        assert acc.mean < rnd.mean

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            compare_strategies([], Strategy.GT, SimulationParams(delta=0.1), seed=0)


class TestAggregateScores:
    def test_median_odd(self):
        assert aggregate_scores([3.0, 1.0, 2.0]) == 2.0

    def test_median_even_uses_midpoint(self):
        assert aggregate_scores([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_mean(self):
        assert aggregate_scores([0.4, 0.47], mode="mean") == pytest.approx(
            0.435, abs=1e-15
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_scores([])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            aggregate_scores([1.0], mode="mode")
