"""Decisions with one owner: the estimation stream and the matrix validation."""

import json

import numpy as np
import pytest

from annobias.core import DegenerateDistributionError, TransitionMatrix
from annobias.harness import experiments
from annobias.harness.cli import main
from annobias.harness.config import ExperimentConfig
from annobias.harness.formats import (
    Dataset,
    ImageRecord,
    TransitionMatrixFile,
    load_dataset,
    save_dataset,
)
from conftest import build_dataset


@pytest.fixture
def annotated_dir(tmp_path):
    """Clustered three-class dataset, every class the top class of some image,
    with proposals and raw annotations."""
    ds = build_dataset(30, seed=11, with_proposal=True)
    rng = np.random.default_rng(5)
    images = []
    for img in ds.images:
        classes = tuple(int(c) for c in rng.choice(3, size=4, p=img.gt.probs))
        images.append(ImageRecord(img.image_id, img.gt, classes, img.proposal))
    path = tmp_path / "ds"
    save_dataset(Dataset(ds.meta, tuple(images)), path)
    return path


def test_every_command_reads_one_estimation_stream(
    annotated_dir, tmp_path, monkeypatch
):
    seed = 17
    dataset = load_dataset(annotated_dir)
    tops = {int(np.argmax(img.gt.probs)) for img in dataset.images}
    assert tops == set(range(dataset.num_classes))
    expected = experiments._resolve_transitions(
        None, seed, dataset.meta, dataset.probs
    ).rows.tolist()

    out = tmp_path / "tm.json"
    argv = ["estimate-transitions", "--dataset", str(annotated_dir)]
    assert main(argv + ["--seed", str(seed), "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["rows"] == expected

    seen = []
    resolve = experiments._resolve_transitions

    def spy(*args, **kwargs):
        matrix = resolve(*args, **kwargs)
        seen.append(matrix.rows.tolist())
        return matrix

    monkeypatch.setattr(experiments, "_resolve_transitions", spy)
    cfg = ExperimentConfig(seed=seed, dataset=str(annotated_dir), annotations=(3,))
    experiments.run_simulation_experiment(cfg)
    experiments.run_label_correction(annotated_dir, seed=seed)
    assert seen == [expected, expected]


def test_matrix_file_validates_once_and_keeps_the_matrix(tmp_path):
    tm = TransitionMatrixFile(((0.5, 0.5), (0.2, 0.799)))
    assert tm.matrix is tm.matrix
    np.testing.assert_allclose(tm.matrix.rows.sum(axis=1), 1.0, atol=1e-12)
    assert tm == TransitionMatrixFile(((0.5, 0.5), (0.2, 0.799)))
    assert "matrix" not in repr(tm)


def test_one_class_matrix_is_rejected():
    with pytest.raises(DegenerateDistributionError, match="at least two classes"):
        TransitionMatrix(np.ones((1, 1)))


@pytest.mark.parametrize(
    "flag,value",
    [("--annotations", "5,5"), ("--speedups", "2,2"), ("--metrics", "kl,kl")],
)
def test_repeated_list_entries_fail_on_the_command_line(
    dataset_dir, tmp_path, capsys, flag, value
):
    argv = ["simulate", "--dataset", str(dataset_dir), "--seed", "1", flag, value]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert f"duplicate entries in {flag[2:]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
