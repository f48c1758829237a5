"""The file layer: quoted CSV output, typed config values, named file errors."""

import csv
import json
import math
import re
import tracemalloc
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annobias import DatasetMeta, LabelDistribution
from annobias.harness import formats
from annobias.harness.cli import main
from annobias.harness.config import ConfigError, ExperimentConfig
from annobias.harness.experiments import run_from_manifest, run_label_correction
from annobias.harness.formats import (
    Dataset,
    FormatError,
    ImageRecord,
    LogEntry,
    TransitionMatrixFile,
    _float_texts,
    _write_table,
    load_dataset,
    save_acceptance_log,
    save_dataset,
    save_transition_matrix,
)

# ids a hand-joined CSV writer would split or leave unbalanced
IDS = ("x,y", 'say "hi"', 'both, "q"', "plain")


@pytest.fixture
def quoted_inputs(tmp_path):
    """Dataset (raw annotations, proposals), log and identity matrix."""
    meta = DatasetMeta(("a", "b", "c"))
    gts = [(0.7, 0.2, 0.1), (0.1, 0.8, 0.1), (0.2, 0.2, 0.6), (0.4, 0.5, 0.1)]
    images = tuple(
        ImageRecord(
            image_id,
            LabelDistribution(np.array(gt)),
            (0, 1, i % 3),
            i % 3,
        )
        for i, (image_id, gt) in enumerate(zip(IDS, gts))
    )
    ds_dir = tmp_path / "ds"
    save_dataset(Dataset(meta, images), ds_dir)
    log = tmp_path / "log.csv"
    entries = [
        LogEntry(image_id, i % 3, (i + j) % 3)
        for i, image_id in enumerate(IDS)
        for j in range(2)
    ]
    save_acceptance_log(entries, log, meta)
    matrix = tmp_path / "identity.json"
    save_transition_matrix(TransitionMatrixFile(tuple(map(tuple, np.eye(3)))), matrix)
    return ds_dir, log, matrix


def _table(path):
    """Rows of a CSV file, each checked to be as wide as the header."""
    with open(path, encoding="utf-8", newline="") as f:
        header, *rows = csv.reader(f)
    assert rows, path
    for row in rows:
        assert len(row) == len(header), (path, row)
    return header, rows


def test_output_tables_quote_ids(quoted_inputs, tmp_path):
    ds_dir, log, matrix = quoted_inputs
    out = tmp_path / "out"
    common = ["--dataset", str(ds_dir), "--transitions", str(matrix)]
    simulate = ["simulate", *common, "--seed", "3", "--annotations", "2,4"]
    assert main([*simulate, "--metrics", "kl,l1", "--out", str(out)]) == 0
    assert main(["correct", *common, "--out", str(out / "repaired.csv")]) == 0
    compare = ["compare-strategies", "--dataset", str(ds_dir), "--log", str(log)]
    assert main([*compare, "--seed", "3", "--out", str(out / "compare.csv")]) == 0

    header, rows = _table(out / "results.csv")
    assert {row[header.index("image_id")] for row in rows} == set(IDS)
    for name in ("aggregates.csv", "budget.csv", "compare.csv"):
        _table(out / name)
    header, rows = _table(out / "repaired.csv")
    assert [row[0] for row in rows] == list(IDS)


def test_table_writer_holds_about_one_copy_of_the_text(tmp_path):
    # 1 000 rows of 100 floats, about 2 MB of text
    gen = np.random.default_rng(0)
    rows = [[f"img{i}", *gen.random(100).tolist()] for i in range(1000)]
    header = ["image_id", *(f"p_{j}" for j in range(100))]
    path = tmp_path / "wide.csv"
    tracemalloc.start()
    try:
        _write_table(path, header, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size


# str fields hold every character that can need quoting, and non-ASCII text
_FIELDS = st.one_of(
    st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "é", "雪"]), max_size=6),
    st.integers(),
    st.sampled_from(
        [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5, 1e-4]
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_FIELDS, max_size=5), min_size=1, max_size=6))
def test_table_writer_matches_csv_writer_and_reads_back(tmp_path_factory, table):
    header, *rows = table
    path = tmp_path_factory.mktemp("table") / "t.csv"
    _write_table(path, header, rows)
    with open(path, encoding="utf-8", newline="") as f:
        got = list(csv.reader(f))
    texts = [[repr(v) if isinstance(v, float) else str(v) for v in row] for row in table]
    assert got == texts
    if not any("\r" in text for row in texts for text in row):
        # csv.writer leaves a field holding a bare "\r" unquoted
        want = path.with_name("want.csv")
        with open(want, "w", encoding="utf-8", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(table)
        assert path.read_bytes() == want.read_bytes()


def _pooled(shape, seed=0):
    """Floats drawn from a pool of 50 with both signs, so chunks repeat them."""
    gen = np.random.default_rng(seed)
    return gen.choice(gen.standard_normal(50), size=shape)


FLOAT_TABLES = {
    "several-chunks": _pooled((30_000, 7)),
    "distinct-chunks": np.random.default_rng(1).random((20_000, 7)),
    "row-wider-than-a-chunk": _pooled((2, 2**16 + 3)),
    "signed-zeros-nan-inf": np.array(
        [
            [0.0, -0.0, math.nan, math.inf],
            [-math.inf, -0.0, 0.0, -math.nan],
            [5e-324, 1e16, 1e-5, 1e-4],
        ]
    ),
    "no-rows": np.empty((0, 5)),
    "no-columns": np.empty((3, 0)),
}


@pytest.mark.parametrize("values", FLOAT_TABLES.values(), ids=FLOAT_TABLES.keys())
def test_float_texts_equal_repr_of_every_cell(values):
    assert list(_float_texts(values)) == [list(map(repr, r)) for r in values.tolist()]


def test_float_texts_format_a_value_once_across_chunks(monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(formats, "repr", counted, raising=False)
    values = _pooled((30_000, 7))  # four chunks drawing on one pool of 50
    assert list(_float_texts(values)) == [list(map(repr, r)) for r in values.tolist()]
    assert len(calls) == len(np.unique(values)) == 50


def _write_excess(tmp_path, n):
    """Traced peak minus file size of writing ``n`` rows of 100 distinct floats
    through the float formatter."""
    values = np.random.default_rng(n).random((n, 100))
    ids = [f"img{i}" for i in range(n)]
    path = tmp_path / f"{n}.csv"
    tracemalloc.start()
    try:
        rows = ([i, *texts] for i, texts in zip(ids, _float_texts(values)))
        _write_table(path, ["image_id", *(f"p_{j}" for j in range(100))], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - path.stat().st_size


def test_float_formatter_holds_the_strings_of_one_chunk(tmp_path):
    # all-distinct cells: one string per cell of a chunk, never of the table
    assert _write_excess(tmp_path, 8000) < 2 * _write_excess(tmp_path, 1000)


@pytest.mark.parametrize("image_id", ["x\ry", "x\r\ny"], ids=["cr", "crlf"])
def test_ids_with_carriage_returns_round_trip(tmp_path, image_id):
    ds_dir = tmp_path / "ds"
    ds_dir.mkdir()
    (ds_dir / "meta.json").write_text('{"class_names": ["a", "b"]}', encoding="utf-8")
    quoted = f'"{image_id}"'
    (ds_dir / "gt.csv").write_bytes(
        f"image_id,p_0,p_1,proposal\n{quoted},0.25,0.75,b\nplain,0.5,0.5,a\n".encode()
    )
    (ds_dir / "annotations.csv").write_bytes(
        f"image_id,annotator_idx,class\n{quoted},0,b\n{quoted},1,a\nplain,0,a\n".encode()
    )
    first = load_dataset(ds_dir)
    save_dataset(first, tmp_path / "copy")
    again = load_dataset(tmp_path / "copy")
    assert again.ids == first.ids == (image_id, "plain")
    for column in ("probs", "proposals", "classes", "offsets"):
        np.testing.assert_array_equal(getattr(again, column), getattr(first, column))

    matrix = tmp_path / "identity.json"
    save_transition_matrix(TransitionMatrixFile(tuple(map(tuple, np.eye(2)))), matrix)
    out = tmp_path / "repaired.csv"
    argv = ["--dataset", str(tmp_path / "copy"), "--transitions", str(matrix)]
    assert main(["correct", *argv, "--out", str(out)]) == 0
    _, rows = _table(out)
    assert [row[0] for row in rows] == [image_id, "plain"]


@pytest.mark.parametrize(
    "ids", [(" x ",), ("",), ("x", " x")], ids=["padded", "empty", "beside-stripped"]
)
def test_in_memory_ids_that_would_not_read_back_are_refused(tmp_path, ids):
    # _table strips ids and refuses empty ones, so these would load changed
    # (" x " as "x"), fail ("" as an empty id), or clash (" x" with "x")
    meta = DatasetMeta(("a", "b"))
    gt = LabelDistribution([0.5, 0.5])
    named = re.escape(repr(ids[-1]))
    with pytest.raises(FormatError, match=named):
        Dataset(meta, [ImageRecord(image_id, gt) for image_id in ids])
    entries = [LogEntry(image_id, 0, 1) for image_id in ids]
    with pytest.raises(FormatError, match=named):
        save_acceptance_log(entries, tmp_path / "log.csv", meta)
    assert not (tmp_path / "log.csv").exists()


_SEEDED = {
    "correct": ["correct"],
    "correct-with-matrix": ["correct", "--transitions", "{matrix}"],
    "estimate-transitions": ["estimate-transitions"],
    "simulate": ["simulate", "--annotations", "2"],
}


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", list(_SEEDED))
def test_every_command_refuses_the_same_seeds(
    quoted_inputs, tmp_path, capsys, command, seed
):
    ds_dir, _, matrix = quoted_inputs
    out = tmp_path / "out"
    argv = [arg.format(matrix=matrix) for arg in _SEEDED[command]]
    argv += ["--dataset", str(ds_dir), "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 2
    assert "error: seed must fit in 64 unsigned bits" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="seed must fit in 64 unsigned bits"):
        run_label_correction(ds_dir, seed=seed)


def test_a_failing_row_leaves_no_file_and_keeps_an_old_one(tmp_path):
    meta = DatasetMeta(("a", "b", "c"))
    entries = [LogEntry(f"im{i}", i % 3, 0) for i in range(50)]
    entries[30] = LogEntry("im30", 7, 0)  # no class 7: name_of raises mid-table
    path = tmp_path / "log.csv"
    with pytest.raises(IndexError, match="class index 7"):
        save_acceptance_log(entries, path, meta)
    assert not path.exists()

    save_acceptance_log(entries[:30], path, meta)
    before = path.read_bytes()
    with pytest.raises(IndexError, match="class index 7"):
        save_acceptance_log(entries, path, meta)
    assert path.read_bytes() == before


def _config(dataset_dir, **overrides):
    return {"seed": 1, "dataset": str(dataset_dir), **overrides}


WRONG_TYPES = [
    ({"seed": [1]}, "seed"),
    ({"annotations": 5}, "annotations"),
    ({"dataset": ["x"]}, "dataset"),
    ({"annotations": "55"}, "annotations"),
]


@pytest.mark.parametrize("overrides, key", WRONG_TYPES, ids=repr)
def test_wrong_typed_config_value_names_the_key(
    dataset_dir, tmp_path, overrides, key
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config(dataset_dir, **overrides)), encoding="utf-8")
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize("overrides, key", WRONG_TYPES, ids=repr)
def test_wrong_typed_manifest_value_names_the_key(
    dataset_dir, tmp_path, overrides, key
):
    path = tmp_path / "manifest.json"
    manifest = {"tool": "annobias", "config": _config(dataset_dir, **overrides)}
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ConfigError, match=key):
        run_from_manifest(path)


def test_wrong_typed_config_value_is_a_cli_error(dataset_dir, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config(dataset_dir, seed=[1])), encoding="utf-8")
    argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("empty", [False, True], ids=["dataset", "empty-dataset"])
def test_bad_cb_input_is_rejected_before_any_image(quoted_inputs, tmp_path, empty):
    ds_dir, _, matrix = quoted_inputs
    if empty:
        (ds_dir / "gt.csv").write_text("image_id,p_0,p_1,p_2\n", encoding="utf-8")
        (ds_dir / "annotations.csv").unlink()
    with pytest.raises(ValueError, match="cb_input must be one of") as info:
        run_label_correction(ds_dir, transitions=str(matrix), cb_input="bogus")
    assert "image" not in str(info.value)


MALFORMED = {
    "non-utf8": b'{"seed": 1, "dataset": "\xff"}',
    "deep-nesting": b"[" * 100_000,
    "long-integer": b'{"seed": ' + b"9" * 5000 + b"}",
}


@pytest.mark.parametrize("content", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_file_names_the_file(tmp_path, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize("content", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_manifest_names_the_file(tmp_path, content):
    path = tmp_path / "manifest.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        run_from_manifest(path)


@pytest.mark.parametrize("key", ["dataset", "transitions"])
def test_over_long_path_is_a_config_error(dataset_dir, tmp_path, key):
    # the operating system refuses the name itself (ENAMETOOLONG)
    config = _config(dataset_dir, **{key: "9" * 400})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{key} .*not found"):
        ExperimentConfig.from_file(path)
    path.write_text(json.dumps({"config": config}), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{key} .*not found"):
        run_from_manifest(path)


# ids the results writer quotes: a comma, a quote, a bare CR and a CRLF
RESULT_IDS = ("a,b", 'q"x', "x\ry", "x\r\ny")


@pytest.mark.parametrize("annotations", ["3", "2,5"])
@pytest.mark.parametrize("chunk_cells", [formats._CHUNK_CELLS, 40])
def test_results_csv_matches_the_row_dict_writer(
    tmp_path, monkeypatch, annotations, chunk_cells
):
    monkeypatch.setattr(formats, "_CHUNK_CELLS", chunk_cells)
    ids = [f"img{i}" for i in range(300)]  # three blocks of 128 images
    for at, image_id in zip((0, 127, 128, 299), RESULT_IDS):
        ids[at] = image_id
    gts = np.random.default_rng(4).dirichlet(np.ones(3), len(ids))
    images = tuple(
        ImageRecord(i, LabelDistribution(gt), (), None) for i, gt in zip(ids, gts)
    )
    save_dataset(Dataset(DatasetMeta(("a", "b", "c")), images), tmp_path / "ds")
    matrix = tmp_path / "identity.json"
    save_transition_matrix(TransitionMatrixFile(tuple(map(tuple, np.eye(3)))), matrix)
    out = tmp_path / "out"
    argv = ["simulate", "--dataset", str(tmp_path / "ds"), "--transitions", str(matrix)]
    argv += ["--seed", "7", "--annotations", annotations, "--metrics", "kl,l1"]
    assert main([*argv, "--out", str(out)]) == 0

    # the row-dict writer: one dict per (image, key) cell through _write_table
    rows = run_from_manifest(out / "manifest.json").results
    columns = tuple(rows[0])
    _write_table(tmp_path / "want.csv", columns, map(itemgetter(*columns), rows))
    assert (out / "results.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    header, got = _table(out / "results.csv")
    assert header == list(columns)
    assert len(got) == len(ids) * 2 * 2 * len(annotations.split(","))
    assert [row[0] for row in got[:: len(got) // len(ids)]] == ids
