"""Loaders fed arbitrary bytes fail with FormatError (ConfigError for config
files and manifests) and nothing else."""

import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from annobias import DatasetMeta
from annobias.harness import experiments
from annobias.harness.config import ConfigError, ExperimentConfig
from annobias.harness.formats import (
    FormatError,
    load_acceptance_log,
    load_dataset,
    load_transition_matrix,
)

META = DatasetMeta(("a", "b", "c"))

# a config that passes validation from any working directory
CONFIG = {
    "seed": 1,
    "dataset": ".",
    "strategy": "ACCEPT_GT",
    "annotations": [5, 10],
    "sim_delta": 0.1,
    "mu": 0.5,
    "use_bc": True,
    "cb_input": "corrected",
    "metrics": ["kl", "l1"],
    "speedups": [1.0, 2.5],
    "out_dir": "out",
}

VALID = {
    "meta.json": json.dumps({"class_names": ["a", "b", "c"], "delta": 0.1}).encode(),
    "gt.csv": b"image_id,p_0,p_1,p_2,proposal\nx,0.5,0.3,0.2,a\ny,0.1,0.1,0.8,\n",
    "annotations.csv": b"image_id,annotator_idx,class\nx,0,a\nx,1,b\ny,0,c\n",
    "acceptance_log.csv": b"image_id,proposal_class,annotated_class\nx,a,a\ny,c,b\n",
    "matrix.json": json.dumps(
        {"rows": [[0.9, 0.1], [0.2, 0.8]], "class_names": ["a", "b"]}
    ).encode(),
    "config.json": json.dumps(CONFIG).encode(),
    "manifest.json": json.dumps({"tool": "annobias", "config": CONFIG}).encode(),
}

# bytes that steer parsers into their edge cases: separators, quotes,
# line ends, JSON syntax, numbers out of float range, invalid UTF-8
_ALPHABET = list(b',"\r\n\x00{}[]:-.eE019abcpNI') + [0xC3, 0xFF]


@st.composite
def _contents(draw, name):
    """Arbitrary bytes, or the file's valid content with a span replaced."""
    kind = draw(st.sampled_from(("bytes", "alphabet", "splice")))
    if kind == "bytes":
        return draw(st.binary(max_size=300))
    if kind == "alphabet":
        return bytes(draw(st.lists(st.sampled_from(_ALPHABET), max_size=300)))
    base = VALID[name]
    start = draw(st.integers(0, len(base)))
    end = draw(st.integers(start, len(base)))
    insert = draw(
        st.one_of(
            st.binary(max_size=20),
            st.lists(st.sampled_from(_ALPHABET), max_size=20).map(bytes),
            st.sampled_from(
                (b"1e999", b"-1", b"9" * 400, b"9" * 5000, b"[" * 5000, b"NaN")
            ),
        )
    )
    return base[:start] + insert + base[end:]


FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _only_format_errors(load, *args):
    try:
        load(*args)
    except FormatError:
        pass


@pytest.mark.parametrize("name", ["meta.json", "gt.csv", "annotations.csv"])
@FUZZ
@given(data=st.data())
def test_load_dataset_raises_only_format_error(name, data):
    content = data.draw(_contents(name))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for file in ("meta.json", "gt.csv", "annotations.csv"):
            (root / file).write_bytes(content if file == name else VALID[file])
        _only_format_errors(load_dataset, root)


@FUZZ
@given(data=st.data())
def test_load_acceptance_log_raises_only_format_error(data):
    content = data.draw(_contents("acceptance_log.csv"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "acceptance_log.csv"
        path.write_bytes(content)
        _only_format_errors(load_acceptance_log, path, META)


@FUZZ
@given(data=st.data())
def test_load_transition_matrix_raises_only_format_error(data):
    content = data.draw(_contents("matrix.json"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix.json"
        path.write_bytes(content)
        _only_format_errors(load_transition_matrix, path)


def _only_config_errors(load, *args):
    try:
        load(*args)
    except ConfigError:
        pass


@FUZZ
@given(data=st.data())
def test_config_file_raises_only_config_error(data):
    content = data.draw(_contents("config.json"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(content)
        _only_config_errors(ExperimentConfig.from_file, path)


@FUZZ
@given(data=st.data())
def test_manifest_raises_only_config_error(data):
    # only the reading is under test: the experiment a valid manifest
    # names is not run
    content = data.draw(_contents("manifest.json"))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        experiments, "run_simulation_experiment", lambda cfg: cfg
    ):
        path = Path(tmp) / "manifest.json"
        path.write_bytes(content)
        _only_config_errors(experiments.run_from_manifest, path)


@pytest.mark.parametrize(
    "name", ["meta.json", "gt.csv", "annotations.csv", "acceptance_log.csv"]
)
def test_non_utf8_bytes_name_the_file(tmp_path, name):
    for file in ("meta.json", "gt.csv", "annotations.csv"):
        (tmp_path / file).write_bytes(VALID[file])
    path = tmp_path / name
    path.write_bytes(VALID[name].replace(b"a", b"\xff", 1))
    with pytest.raises(FormatError, match="not valid UTF-8") as info:
        if name == "acceptance_log.csv":
            load_acceptance_log(path, META)
        else:
            load_dataset(tmp_path)
    assert str(path) in str(info.value)


def test_non_utf8_matrix_names_the_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_bytes(b'{"rows": [[1.0]], "class_names": ["\xff"]}')
    with pytest.raises(FormatError, match="not valid UTF-8") as info:
        load_transition_matrix(path)
    assert str(path) in str(info.value)


_HUGE_INT = b"9" * 400  # parses as an int, overflows float()


@pytest.mark.parametrize(
    "name, content",
    [
        ("meta.json", b'{"class_names": ["a", "b", "c"], "delta": ' + _HUGE_INT + b"}"),
        ("meta.json", b"[" * 100_000),
        ("meta.json", b'{"class_names": ["a"], "mu": ' + b"9" * 5000 + b"}"),
        ("gt.csv", b"image_id,p_0,p_1,p_2\nx," + b"1" * 200_000 + b",0,0\n"),
        ("matrix.json", b'{"rows": [[' + _HUGE_INT + b"]]}"),
    ],
    ids=[
        "meta-float-overflow",
        "meta-deep-nesting",
        "meta-digit-limit",
        "gt-field-too-large",
        "matrix-float-overflow",
    ],
)
def test_fixed_malformed_inputs_raise_format_error(tmp_path, name, content):
    for file in ("meta.json", "gt.csv"):
        (tmp_path / file).write_bytes(VALID[file])
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(FormatError, match=re.escape(str(path))):
        if name == "matrix.json":
            load_transition_matrix(path)
        else:
            load_dataset(tmp_path)
