"""The columnar dataset against a row-by-row reference loader, errors in
later 128-row blocks of gt.csv, and the two command-line faults the columns
fixed: the header of an empty ``correct`` run and the log line of an
unknown image id."""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annobias import (
    AnnotationSet,
    DatasetMeta,
    LabelDistribution,
    TransitionMatrix,
    soft_gt_from_annotations,
)
from annobias.harness import formats
from annobias.harness.cli import main
from annobias.harness.formats import (
    Dataset,
    FormatError,
    ImageRecord,
    LogEntry,
    TransitionMatrixFile,
    load_dataset,
    save_acceptance_log,
    save_dataset,
    save_transition_matrix,
)

from conftest import build_dataset

_ANNOTATIONS_HEADER = ["image_id", "annotator_idx", "class"]


def _reference_images(root: Path, meta: DatasetMeta) -> list:
    """load_dataset of a valid directory, read row by row into one
    LabelDistribution and ImageRecord per image."""
    k = meta.num_classes
    gt_path, ann_path = root / "gt.csv", root / "annotations.csv"
    gt_rows = None
    if gt_path.exists():
        gt_rows = {}
        header = formats._gt_header(k)
        rows = formats._table(gt_path, header, "proposal")
        for _, image_id, row, has_proposal in rows:
            gt = LabelDistribution(np.asarray([float(v) for v in row[1 : 1 + k]]))
            name = row[-1].strip() if has_proposal else ""
            gt_rows[image_id] = (gt, meta.index_of(name) if name else None)
    ann_rows = {}
    if ann_path.exists():
        for _, image_id, row, _ in formats._table(ann_path, _ANNOTATIONS_HEADER):
            ann_rows.setdefault(image_id, []).append(meta.index_of(row[2].strip()))
    images = []
    for image_id in ann_rows if gt_rows is None else gt_rows:
        classes = tuple(ann_rows.get(image_id, ()))
        if gt_rows is None:
            gt, proposal = soft_gt_from_annotations(AnnotationSet.tally(classes, k)), None
        else:
            gt, proposal = gt_rows[image_id]
        images.append(ImageRecord(image_id, gt, classes, proposal))
    return images


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.image_id == w.image_id
        assert g.gt.probs.tobytes() == w.gt.probs.tobytes()
        assert g.annotation_classes == w.annotation_classes
        assert g.proposal == w.proposal
        if w.annotations is None:
            assert g.annotations is None
        else:
            assert g.annotations.counts.tolist() == w.annotations.counts.tolist()
            assert g.annotations.total == w.annotations.total


def _assert_columns_hold(ds: Dataset, records):
    k = ds.num_classes
    assert ds.ids == tuple(r.image_id for r in records)
    assert ds.probs.shape == (len(records), k) and not ds.probs.flags.writeable
    assert ds.offsets.tolist()[0] == 0 and ds.offsets.size == len(records) + 1
    for i, r in enumerate(records):
        assert ds.probs[i].tobytes() == r.gt.probs.tobytes()
        assert ds.proposals[i] == (-1 if r.proposal is None else r.proposal)
        lo, hi = ds.offsets[i], ds.offsets[i + 1]
        assert tuple(ds.classes[lo:hi].tolist()) == r.annotation_classes
        tally = np.bincount(np.array(r.annotation_classes, dtype=int), minlength=k)
        assert ds.counts[i].tolist() == tally.tolist()
        assert ds.image(r.image_id) is ds.images[i]


# quotes, separators and line breaks inside ids; csv quotes them on write
_IDS = st.text(st.sampled_from(list('ab7_,"é \n')), min_size=1, max_size=6)


@st.composite
def _datasets(draw):
    """A valid dataset directory's contents: ``(K, proposal column?, gt rows
    or None, annotation rows or None)``."""
    k = draw(st.sampled_from([2, 3, 5]))
    ids = draw(st.lists(_IDS.map(str.strip).filter(bool), unique=True, max_size=12))
    has_gt = draw(st.booleans())
    with_proposals = has_gt and draw(st.booleans())
    annotations = []
    gt_rows = [] if has_gt else None
    for image_id in ids:
        classes = st.integers(0, k - 1)
        count = draw(st.integers(0 if has_gt else 1, 4))
        annotations += [(image_id, j, draw(classes)) for j in range(count)]
        if has_gt:
            w = draw(st.lists(st.floats(0, 1), min_size=k, max_size=k))
            w = [1.0] * k if sum(w) == 0 else w
            digits = draw(st.sampled_from([None, 9, 12]))  # 9 renormalizes
            probs = [v / sum(w) for v in w]
            probs = probs if digits is None else [round(v, digits) for v in probs]
            row = [image_id] + [repr(v) for v in probs]
            if with_proposals:
                row.append(draw(st.sampled_from([""] + list(range(k)))))
            gt_rows.append(row)
    order = draw(st.permutations(range(len(annotations))))
    annotations = [annotations[i] for i in order]  # images interleave
    if has_gt and not annotations and draw(st.booleans()):
        annotations = None  # no annotations.csv at all
    return k, with_proposals, gt_rows, annotations


def _write(root: Path, k, with_proposals, gt_rows, annotations):
    names = [f"c{i}" for i in range(k)]
    root.mkdir()
    (root / "meta.json").write_text(json.dumps({"class_names": names}))
    if gt_rows is not None:
        header = formats._gt_header(k) + (["proposal"] if with_proposals else [])
        rows = [
            row[: k + 1] + [names[c] if c != "" else "" for c in row[k + 1 :]]
            for row in gt_rows
        ]
        with open(root / "gt.csv", "w", newline="", encoding="utf-8") as f:
            csv.writer(f).writerows([header] + rows)
    if annotations is not None:
        rows = [(i, j, names[c]) for i, j, c in annotations]
        path = root / "annotations.csv"
        with open(path, "w", newline="", encoding="utf-8") as f:
            csv.writer(f).writerows([_ANNOTATIONS_HEADER] + rows)


@settings(max_examples=150, deadline=None)
@given(_datasets())
def test_columnar_loader_matches_the_row_by_row_reference(contents):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ds"
        _write(root, *contents)
        ds = load_dataset(root)
        want = _reference_images(root, ds.meta)
        _assert_columns_hold(ds, want)
        _assert_same_records(ds.images, want)

        rebuilt = Dataset(ds.meta, ds.images)
        assert rebuilt.images == ds.images
        _assert_columns_hold(rebuilt, want)
        save_dataset(rebuilt, Path(tmp) / "again")
        _assert_same_records(load_dataset(Path(tmp) / "again").images, want)


def _gt_file(root: Path, edits: dict) -> Path:
    """A 299-image, three-class dataset; ``edits`` maps a file line to a
    function that changes that line's fields."""
    root.mkdir()
    (root / "meta.json").write_text(json.dumps({"class_names": ["a", "b", "c"]}))
    lines = ["image_id,p_0,p_1,p_2,proposal"]
    lines += [f"img{i},0.5,0.25,0.25,{'abc'[i % 3]}" for i in range(299)]
    for line, edit in edits.items():
        fields = lines[line - 1].split(",")
        edit(fields)
        lines[line - 1] = ",".join(fields)
    (root / "gt.csv").write_text("\n".join(lines) + "\n")
    return root / "gt.csv"


def _bad_float(f):
    f[2] = "0.2.5"


def _bad_sum(f):
    f[1:4] = ["0.5", "0.3", "0.1"]


def _bad_class(f):
    f[4] = "zebra"


def _duplicate(f):
    f[0] = "img7"


def _too_short(f):
    del f[3]


# the messages of the row-by-row loader the columnar one replaced
_MESSAGES = {
    _bad_float: "could not convert string to float: '0.2.5'",
    _bad_sum: "non-normalizable soft label "
    "(probabilities sum to 0.9, not normalizable)",
    _bad_class: "unknown class name 'zebra'",
    _duplicate: "duplicate image_id 'img7'",
}


@pytest.mark.parametrize("line", [130, 260])  # the second and third blocks
@pytest.mark.parametrize("edit", list(_MESSAGES), ids=lambda e: e.__name__)
def test_an_error_in_a_later_block_names_its_line(tmp_path, line, edit):
    path = _gt_file(tmp_path / "ds", {line: edit})
    with pytest.raises(FormatError) as info:
        load_dataset(tmp_path / "ds")
    assert str(info.value) == f"{path}:{line}: {_MESSAGES[edit]}"


@pytest.mark.parametrize(
    "edits, line, edit",
    [
        ({260: _bad_float, 130: _bad_sum}, 130, _bad_sum),
        ({131: _bad_float, 135: _duplicate}, 131, _bad_float),
        ({140: _bad_sum, 150: _too_short}, 140, _bad_sum),
        ({133: lambda f: (_bad_float(f), _bad_class(f))}, 133, _bad_float),
        ({133: lambda f: (_bad_sum(f), _duplicate(f))}, 133, _duplicate),
    ],
)
def test_the_first_bad_line_wins_within_and_across_blocks(tmp_path, edits, line, edit):
    path = _gt_file(tmp_path / "ds", edits)
    with pytest.raises(FormatError) as info:
        load_dataset(tmp_path / "ds")
    assert str(info.value) == f"{path}:{line}: {_MESSAGES[edit]}"


def test_correct_on_an_empty_dataset_writes_every_class_column(tmp_path):
    save_dataset(Dataset(DatasetMeta(("a", "b", "c", "d")), ()), tmp_path / "ds")
    matrix = tmp_path / "matrix.json"
    save_transition_matrix(
        TransitionMatrixFile.from_matrix(TransitionMatrix.identity(4)), matrix
    )
    out = tmp_path / "repaired.csv"
    argv = ["correct", "--dataset", str(tmp_path / "ds"), "--transitions", str(matrix)]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "image_id,p_0,p_1,p_2,p_3\n"


def test_an_unknown_log_image_names_the_log_file_and_line(tmp_path, capsys):
    ds = build_dataset(3, seed=4, with_proposal=True)
    save_dataset(ds, tmp_path / "ds")
    log = tmp_path / "log.csv"
    entries = [LogEntry(img.image_id, 0, 1) for img in ds.images]
    save_acceptance_log(entries[:2] + [LogEntry("nosuch", 0, 0)], log, ds.meta)
    text = log.read_text(encoding="utf-8").splitlines()
    log.write_text("\n".join(text[:2] + [""] + text[2:]) + "\n", encoding="utf-8")
    base = ["--dataset", str(tmp_path / "ds"), "--log", str(log)]
    expected = f"error: {log}:5: acceptance log references unknown image_id 'nosuch'\n"
    for argv in (["calibrate"] + base, ["compare-strategies"] + base + ["--seed", "1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == expected


@pytest.mark.parametrize("classes", [(0, 2), (-1,)])
def test_records_with_an_out_of_range_annotation_class_are_rejected(classes):
    # the class would land in another image's tally column
    img = ImageRecord("x", LabelDistribution([1.0, 0.0]), classes, None)
    other = ImageRecord("y", LabelDistribution([0.0, 1.0]), (), None)
    with pytest.raises(FormatError, match="'x': unknown annotation class"):
        Dataset(DatasetMeta(("a", "b")), (img, other))
