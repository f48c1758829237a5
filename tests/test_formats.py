"""Disk formats: dataset directories, acceptance logs, matrix files."""

import json

import numpy as np
import pytest

from annobias import (
    CalibrationError,
    DatasetMeta,
    LabelDistribution,
    TransitionMatrix,
)
from annobias.calibration import two_proposal_candidates
from annobias.harness.formats import (
    Dataset,
    FormatError,
    ImageRecord,
    LogEntry,
    TransitionMatrixFile,
    acceptance_records_from_log,
    bundled_transition_matrix,
    bundled_transition_names,
    load_acceptance_log,
    load_dataset,
    load_transition_matrix,
    save_acceptance_log,
    save_dataset,
    save_transition_matrix,
)

from conftest import build_dataset

META3 = DatasetMeta(("a", "b", "c"))


def _write_meta(root, names=("a", "b", "c"), **extra):
    root.mkdir(parents=True, exist_ok=True)
    obj = {"class_names": list(names), **extra}
    (root / "meta.json").write_text(json.dumps(obj), encoding="utf-8")


def _write_gt(root, lines):
    (root / "gt.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_annotations(root, lines):
    (root / "annotations.csv").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )


def _mixed_dataset():
    images = (
        ImageRecord(
            "img_a",
            LabelDistribution([0.5, 0.3, 0.2]),
            (0, 0, 1, 0),
            0,
        ),
        ImageRecord("img_b", LabelDistribution([0.1, 0.8, 0.1]), (), None),
        ImageRecord(
            "img_c",
            LabelDistribution([0.25, 0.25, 0.5]),
            (2, 2),
            2,
        ),
    )
    return Dataset(DatasetMeta(("a", "b", "c"), delta=0.1), images)


class TestDatasetRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        ds = _mixed_dataset()
        d1, d2 = tmp_path / "one", tmp_path / "two"
        save_dataset(ds, d1)
        loaded = load_dataset(d1)
        save_dataset(loaded, d2)
        for name in ("meta.json", "gt.csv", "annotations.csv"):
            assert (d2 / name).read_bytes() == (d1 / name).read_bytes()

    def test_loaded_fields_match_saved(self, tmp_path):
        ds = _mixed_dataset()
        save_dataset(ds, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert loaded.meta.class_names == ("a", "b", "c")
        assert loaded.meta.delta == 0.1
        assert [img.image_id for img in loaded.images] == [
            "img_a",
            "img_b",
            "img_c",
        ]
        a, b, c = loaded.images
        np.testing.assert_array_equal(a.gt.probs, [0.5, 0.3, 0.2])
        assert a.annotation_classes == (0, 0, 1, 0)
        assert a.annotations.counts.tolist() == [3, 1, 0]
        assert a.proposal == 0
        assert b.proposal is None  # empty proposal cell reads back as None
        assert b.annotations is None
        assert c.proposal == 2

    def test_record_tally_is_derived_from_its_classes(self, tmp_path):
        gt = LabelDistribution([0.5, 0.3, 0.2])
        ds = Dataset(DatasetMeta(("a", "b", "c")), [ImageRecord("x", gt, (0, 1, 1), 0)])
        assert ds.counts[0].tolist() == [1, 2, 0]
        assert ds.images[0].annotations.counts.tolist() == ds.counts[0].tolist()
        save_dataset(ds, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert loaded.images[0].annotations.counts.tolist() == ds.counts[0].tolist()

    def test_generated_dataset_round_trips(self, tmp_path):
        ds = build_dataset(15, seed=5, with_proposal=True)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        save_dataset(ds, d1)
        save_dataset(load_dataset(d1), d2)
        assert (d2 / "gt.csv").read_bytes() == (d1 / "gt.csv").read_bytes()
        assert not (d1 / "annotations.csv").exists()

    def test_no_proposal_column_when_no_image_has_one(self, tmp_path):
        ds = build_dataset(3, seed=5)
        save_dataset(ds, tmp_path / "d")
        header = (tmp_path / "d" / "gt.csv").read_text().splitlines()[0]
        assert header == "image_id,p_0,p_1,p_2"
        assert load_dataset(tmp_path / "d").images[0].proposal is None

    def test_counts_only_dataset_averages_soft_labels(self, tmp_path):
        root = tmp_path / "d"
        _write_meta(root)
        _write_annotations(
            root,
            [
                "image_id,annotator_idx,class",
                "img1,0,a",
                "img1,1,a",
                "img1,2,b",
                "img1,3,a",
            ],
        )
        ds = load_dataset(root)
        np.testing.assert_array_equal(ds.images[0].gt.probs, [0.75, 0.25, 0.0])
        assert ds.images[0].annotation_classes == (0, 0, 1, 0)

    def test_image_lookup(self):
        ds = _mixed_dataset()
        assert ds.image("img_b").image_id == "img_b"
        with pytest.raises(KeyError):
            ds.image("nope")
        assert set(ds.gt_by_id()) == {"img_a", "img_b", "img_c"}


class TestDatasetErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(FormatError, match="not a dataset directory"):
            load_dataset(tmp_path / "absent")

    def test_over_long_path_is_a_format_error(self, tmp_path):
        # the OS refuses the name (ENAMETOOLONG) rather than reporting it absent
        with pytest.raises(FormatError, match="not a dataset directory"):
            load_dataset(tmp_path / ("9" * 400))

    def test_missing_meta(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        _write_gt(root, ["image_id,p_0,p_1,p_2", "img1,0.5,0.3,0.2"])
        with pytest.raises(FormatError, match="missing metadata file"):
            load_dataset(root)

    def test_unknown_meta_key(self, tmp_path):
        root = tmp_path / "d"
        _write_meta(root, version=2)
        _write_gt(root, ["image_id,p_0,p_1,p_2", "img1,0.5,0.3,0.2"])
        with pytest.raises(FormatError, match="unknown metadata keys.*version"):
            load_dataset(root)

    def test_meta_without_class_names(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        (root / "meta.json").write_text('{"delta": 0.1}', encoding="utf-8")
        with pytest.raises(FormatError, match="class_names"):
            load_dataset(root)

    def test_meta_numeric_field_rejects_bool(self, tmp_path):
        root = tmp_path / "d"
        _write_meta(root, delta=True)
        with pytest.raises(FormatError, match="'delta' must be a number"):
            load_dataset(root)

    def test_no_data_files(self, tmp_path):
        root = tmp_path / "d"
        _write_meta(root)
        with pytest.raises(FormatError, match="need gt.csv or annotations.csv"):
            load_dataset(root)

    def test_non_normalizable_gt_row(self, tmp_path):
        root = tmp_path / "d"
        _write_meta(root)
        _write_gt(root, ["image_id,p_0,p_1,p_2", "img1,0.5,0.3,0.1"])
        with pytest.raises(FormatError, match="non-normalizable soft label"):
            load_dataset(root)

    def test_duplicate_image_id_reports_line(self, tmp_path):
        root = tmp_path / "d"
        _write_meta(root)
        _write_gt(
            root,
            [
                "image_id,p_0,p_1,p_2",
                "img1,0.5,0.3,0.2",
                "img1,0.5,0.3,0.2",
            ],
        )
        with pytest.raises(FormatError, match=r":3: duplicate image_id 'img1'"):
            load_dataset(root)

    def test_bad_gt_header(self, tmp_path):
        root = tmp_path / "d"
        _write_meta(root)
        _write_gt(root, ["image_id,q_0,q_1,q_2", "img1,0.5,0.3,0.2"])
        with pytest.raises(FormatError, match="does not match"):
            load_dataset(root)

    def test_empty_annotations_file(self, tmp_path):
        root = tmp_path / "d"
        _write_meta(root)
        (root / "annotations.csv").write_text("", encoding="utf-8")
        with pytest.raises(FormatError, match="empty file, expected header"):
            load_dataset(root)

    def test_wrong_field_count(self, tmp_path):
        root = tmp_path / "d"
        _write_meta(root)
        _write_gt(root, ["image_id,p_0,p_1,p_2", "img1,0.5,0.3"])
        with pytest.raises(FormatError, match="expected 4 fields, got 3"):
            load_dataset(root)

    def test_empty_image_id(self, tmp_path):
        root = tmp_path / "d"
        _write_meta(root)
        _write_gt(root, ["image_id,p_0,p_1,p_2", " ,0.5,0.3,0.2"])
        with pytest.raises(FormatError, match="empty image_id"):
            load_dataset(root)

    def test_unknown_class_name_in_annotations(self, tmp_path):
        root = tmp_path / "d"
        _write_meta(root)
        _write_gt(root, ["image_id,p_0,p_1,p_2", "img1,0.5,0.3,0.2"])
        _write_annotations(
            root, ["image_id,annotator_idx,class", "img1,0,zebra"]
        )
        with pytest.raises(FormatError, match="unknown class name 'zebra'"):
            load_dataset(root)

    def test_unknown_proposal_name(self, tmp_path):
        root = tmp_path / "d"
        _write_meta(root)
        _write_gt(
            root,
            ["image_id,p_0,p_1,p_2,proposal", "img1,0.5,0.3,0.2,zebra"],
        )
        with pytest.raises(FormatError, match="unknown class name 'zebra'"):
            load_dataset(root)

    def test_negative_annotator_idx(self, tmp_path):
        root = tmp_path / "d"
        _write_meta(root)
        _write_gt(root, ["image_id,p_0,p_1,p_2", "img1,0.5,0.3,0.2"])
        _write_annotations(root, ["image_id,annotator_idx,class", "img1,-1,a"])
        with pytest.raises(FormatError, match="negative annotator_idx"):
            load_dataset(root)

    def test_annotation_for_unknown_image(self, tmp_path):
        root = tmp_path / "d"
        _write_meta(root)
        _write_gt(root, ["image_id,p_0,p_1,p_2", "img1,0.5,0.3,0.2"])
        _write_annotations(root, ["image_id,annotator_idx,class", "ghost,0,a"])
        with pytest.raises(FormatError, match="'ghost' not present in gt.csv"):
            load_dataset(root)

    def test_first_orphan_annotation_in_file_order_reports_line(self, tmp_path):
        root = tmp_path / "d"
        _write_meta(root)
        _write_gt(root, ["image_id,p_0,p_1,p_2", "img1,0.5,0.3,0.2"])
        _write_annotations(
            root,
            ["image_id,annotator_idx,class", "img1,0,a", "zed,0,b", "alpha,0,a", "zed,1,c"],
        )
        match = r"annotations\.csv:3: image_id 'zed' not present in gt\.csv"
        with pytest.raises(FormatError, match=match):
            load_dataset(root)

    def test_dataset_rejects_duplicate_images(self):
        img = ImageRecord("x", LabelDistribution([1.0, 0.0]), (), None)
        with pytest.raises(FormatError, match="duplicate image_id"):
            Dataset(DatasetMeta(("a", "b")), (img, img))

    def test_dataset_rejects_width_mismatch(self):
        img = ImageRecord("x", LabelDistribution([1.0, 0.0, 0.0]), (), None)
        with pytest.raises(FormatError, match="metadata declares 2"):
            Dataset(DatasetMeta(("a", "b")), (img,))

    def test_dataset_rejects_out_of_range_proposal(self):
        img = ImageRecord("x", LabelDistribution([1.0, 0.0]), (), 7)
        with pytest.raises(FormatError, match="out of range"):
            Dataset(DatasetMeta(("a", "b")), (img,))

    @pytest.mark.parametrize("classes, proposal", [((0.7, 1), 1), ((0, 1), 1.5)])
    def test_dataset_rejects_non_integer_class_indices(self, classes, proposal):
        # int64 casting once truncated them: proposals [1], counts[0] [1, 1]
        img = ImageRecord("x", LabelDistribution([0.5, 0.5]), classes, proposal)
        with pytest.raises(FormatError, match="image 'x': class indices must be"):
            Dataset(DatasetMeta(("a", "b")), (img,))


class TestAcceptanceLog:
    ENTRIES = [
        LogEntry("img_a", 0, 0),
        LogEntry("img_a", 0, 1),
        LogEntry("img_b", 2, 2),
    ]

    def test_round_trip(self, tmp_path):
        p1, p2 = tmp_path / "log1.csv", tmp_path / "log2.csv"
        save_acceptance_log(self.ENTRIES, p1, META3)
        loaded = load_acceptance_log(p1, META3)
        assert loaded == self.ENTRIES
        save_acceptance_log(loaded, p2, META3)
        assert p2.read_bytes() == p1.read_bytes()

    def test_log_is_written_with_class_names(self, tmp_path):
        p = tmp_path / "log.csv"
        save_acceptance_log([LogEntry("img_a", 0, 2)], p, META3)
        assert p.read_text() == (
            "image_id,proposal_class,annotated_class\nimg_a,a,c\n"
        )

    def test_bad_header(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("image_id,proposal,annotated\nimg_a,a,c\n")
        with pytest.raises(FormatError, match="does not match"):
            load_acceptance_log(p, META3)

    def test_unknown_class(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text(
            "image_id,proposal_class,annotated_class\nimg_a,a,zebra\n"
        )
        with pytest.raises(FormatError, match="unknown class name 'zebra'"):
            load_acceptance_log(p, META3)

    def test_records_join_soft_labels(self):
        gt = {"img_a": LabelDistribution([0.6, 0.3, 0.1])}
        records = acceptance_records_from_log(
            [LogEntry("img_a", 0, 1)], gt
        )
        assert records[0].proposal == 0
        assert records[0].annotated == 1
        assert records[0].gt is gt["img_a"]

    def test_records_reject_unknown_image(self):
        with pytest.raises(FormatError, match="references unknown image_id"):
            acceptance_records_from_log([LogEntry("ghost", 0, 1)], {})


class TestTwoProposalGrouping:
    def test_groups_by_first_appearance(self):
        # rounds under proposals 2 and 0, interleaved, proposal 2 first; as
        # rounds a then b they give the hand-computed 2.25/7 of
        # tests/test_calibration.py with outside classes 1 and 3
        a = [2] * 6 + [0] * 2 + [1, 3]
        b = [2] * 2 + [0] * 5 + [1] * 2 + [3]
        rows_a = [LogEntry("img", 2, c) for c in a]
        rows_b = [LogEntry("img", 0, c) for c in b]
        interleaved = [row for pair in zip(rows_a, rows_b) for row in pair]
        (candidate,) = two_proposal_candidates(interleaved)
        assert candidate == two_proposal_candidates(rows_a + rows_b)[0]
        assert candidate == pytest.approx(2.25 / 7, rel=1e-12)
        assert candidate != two_proposal_candidates(rows_b + rows_a)[0]

    def test_multiple_images(self):
        entries = [
            LogEntry("y", 0, 0),
            LogEntry("x", 0, 0),
            LogEntry("x", 1, 0),
            LogEntry("y", 1, 1),
            LogEntry("y", 1, 1),
            LogEntry("x", 1, 1),
            LogEntry("x", 1, 1),
            LogEntry("x", 1, 1),
        ]
        # one candidate per image in order of first appearance: y's second
        # round accepts 2 of 2, so its candidate is the first rate, 1.0;
        # x's first round accepts 1 of 1, so its candidate is 3/4
        assert two_proposal_candidates(entries) == [1.0, 0.75]

    def test_single_proposal_rejected(self):
        entries = [LogEntry("img", 0, 0), LogEntry("img", 0, 1)]
        with pytest.raises(CalibrationError, match="has 1 distinct proposals"):
            two_proposal_candidates(entries)

    def test_three_proposals_rejected(self):
        entries = [LogEntry("img", 0, 0), LogEntry("img", 1, 1), LogEntry("img", 2, 2)]
        with pytest.raises(CalibrationError, match="has 3 distinct proposals"):
            two_proposal_candidates(entries)


class TestTransitionMatrixFile:
    def test_raw_rows_preserved_matrix_renormalized(self):
        raw = ((0.727, 0.18, 0.093), (0.033, 0.868, 0.099), (0.06, 0.167, 0.773))
        tm = TransitionMatrixFile(raw)
        assert tm.raw_rows == raw
        np.testing.assert_allclose(tm.matrix.rows.sum(axis=1), 1.0, atol=1e-12)

    def test_from_matrix_round_trip(self):
        m = TransitionMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]))
        tm = TransitionMatrixFile.from_matrix(m, class_names=("a", "b"))
        np.testing.assert_allclose(tm.matrix.rows, m.rows, atol=1e-15)
        assert tm.class_names == ("a", "b")

    def test_class_name_count_must_match(self):
        with pytest.raises(FormatError, match="3 class names for 2 matrix rows"):
            TransitionMatrixFile(
                ((1.0, 0.0), (0.0, 1.0)), class_names=("a", "b", "c")
            )

    def test_row_far_from_one_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            TransitionMatrixFile(((0.5, 0.4), (0.5, 0.5)))


class TestTransitionMatrixIO:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_metadata_is_not_written(self, tmp_path, value):
        # NaN and Infinity are not JSON; nothing the package writes holds them
        tm = TransitionMatrixFile(((0.9, 0.1), (0.2, 0.8)), metadata={"x": value})
        path = tmp_path / "tm.json"
        with pytest.raises(FormatError, match="tm.json: cannot write as JSON"):
            save_transition_matrix(tm, path)
        assert not path.exists()

    def test_save_load_save_byte_identical(self, tmp_path):
        tm = TransitionMatrixFile(
            ((0.9, 0.1), (0.25, 0.75)),
            class_names=("cat", "dog"),
            metadata={"dataset": "demo", "expected_blend_kl": 0.5},
        )
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_transition_matrix(tm, p1)
        save_transition_matrix(load_transition_matrix(p1), p2)
        assert p2.read_bytes() == p1.read_bytes()

    def test_optional_keys_omitted(self, tmp_path):
        tm = TransitionMatrixFile(((1.0, 0.0), (0.0, 1.0)))
        p = tmp_path / "m.json"
        save_transition_matrix(tm, p)
        data = json.loads(p.read_text())
        assert set(data) == {"rows"}
        loaded = load_transition_matrix(p)
        assert loaded.class_names is None
        assert loaded.metadata == {}

    def _load_obj(self, tmp_path, obj):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
        return load_transition_matrix(p)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="unknown keys.*'extra'"):
            self._load_obj(tmp_path, {"rows": [[1.0]], "extra": 1})

    def test_missing_rows_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="missing required key 'rows'"):
            self._load_obj(tmp_path, {"class_names": ["a"]})

    def test_non_square_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="must be square"):
            self._load_obj(tmp_path, {"rows": [[0.5, 0.5]]})

    def test_bool_cell_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="number lists"):
            self._load_obj(tmp_path, {"rows": [[True, False], [0.5, 0.5]]})

    def test_string_cell_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="number lists"):
            self._load_obj(tmp_path, {"rows": [["1.0", 0.0], [0.5, 0.5]]})

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="non-empty"):
            self._load_obj(tmp_path, {"rows": []})

    def test_bad_class_names_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="list of strings"):
            self._load_obj(tmp_path, {"rows": [[1.0]], "class_names": [1]})

    def test_bad_metadata_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="'metadata' must be an object"):
            self._load_obj(tmp_path, {"rows": [[1.0]], "metadata": [1, 2]})

    def test_row_sum_far_from_one_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="sum"):
            self._load_obj(tmp_path, {"rows": [[0.5, 0.4], [0.5, 0.5]]})

    def test_top_level_must_be_object(self, tmp_path):
        with pytest.raises(FormatError, match="top level must be a JSON object"):
            self._load_obj(tmp_path, "[1, 2]")

    def test_invalid_json_reports_line(self, tmp_path):
        with pytest.raises(FormatError, match="invalid JSON"):
            self._load_obj(tmp_path, "{not json")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_is_not_read(self, tmp_path, constant):
        # what save_transition_matrix would refuse to write is refused on read
        text = '{"rows": [[1.0]], "metadata": {"x": %s}}' % constant
        with pytest.raises(FormatError, match=f"m.json: invalid JSON: {constant}"):
            self._load_obj(tmp_path, text)


EXPECTED_FIXTURES = [
    "benthic",
    "cifar10h",
    "micebone",
    "pig",
    "plankton",
    "qualitymri",
    "synthetic",
    "treeversity_1",
    "treeversity_6",
    "turkey",
]


class TestBundledMatrices:
    def test_names(self):
        assert bundled_transition_names() == EXPECTED_FIXTURES

    @pytest.mark.parametrize("name", EXPECTED_FIXTURES)
    def test_fixture_round_trips_byte_identically(self, name, tmp_path):
        from importlib import resources

        tm = bundled_transition_matrix(name)
        out = tmp_path / f"{name}.json"
        save_transition_matrix(tm, out)
        packaged = (
            resources.files("annobias.data.transitions") / f"{name}.json"
        ).read_bytes()
        assert out.read_bytes() == packaged

    @pytest.mark.parametrize("name", EXPECTED_FIXTURES)
    def test_fixture_is_well_formed(self, name):
        tm = bundled_transition_matrix(name)
        rows = tm.matrix.rows
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        assert tm.class_names is not None
        assert len(tm.class_names) == rows.shape[0]
        assert "dataset" in tm.metadata
        assert "expected_blend_kl" in tm.metadata

    def test_unknown_name_lists_available(self):
        with pytest.raises(FormatError, match="micebone.*turkey"):
            bundled_transition_matrix("nonexistent")
