"""Commands that read the dataset columns: they never build the
``Dataset.images`` view, and the columnar strategy comparison equals both the
record API and the per-draw reference loop."""

import numpy as np
import pytest

from annobias import AnnotationSet, Strategy, compare_strategies
from annobias.core import TransitionMatrix
from annobias.harness.cli import main
from annobias.harness.config import ExperimentConfig
from annobias.harness.experiments import (
    _effective_sim_params,
    run_strategy_comparison,
)
from annobias.harness.formats import (
    Dataset,
    ImageRecord,
    LogEntry,
    TransitionMatrixFile,
    acceptance_records_from_log,
    load_acceptance_log,
    load_dataset,
    save_acceptance_log,
    save_dataset,
    save_transition_matrix,
)

from conftest import banded_campaign, build_dataset, campaign_records
from test_rng import _per_draw_compare


@pytest.fixture
def view_builds(monkeypatch):
    """Every dataset whose ``images`` view gets built, in build order."""
    builds = []
    view = Dataset.images

    def counted(self):
        if self._images is None:
            builds.append(self)
        return view.fget(self)

    monkeypatch.setattr(Dataset, "images", property(counted))
    return builds


@pytest.fixture
def paths(tmp_path):
    """A banded campaign (dataset and log) and an annotated three-class
    dataset on which every class is the top class of some image, plus an
    identity matrix file."""
    campaign, entries = banded_campaign(seed=3, delta=0.1, annotations_per_image=10)
    save_dataset(campaign, tmp_path / "campaign")
    save_acceptance_log(entries, tmp_path / "log.csv", campaign.meta)

    ds = build_dataset(30, seed=11, with_proposal=True)
    rng = np.random.default_rng(5)
    images = []
    for img in ds.images:
        classes = tuple(int(c) for c in rng.choice(3, size=4, p=img.gt.probs))
        tally = AnnotationSet.tally(classes, 3)
        images.append(ImageRecord(img.image_id, img.gt, tally, classes, img.proposal))
    save_dataset(Dataset(ds.meta, tuple(images)), tmp_path / "annotated")

    matrix = TransitionMatrixFile.from_matrix(TransitionMatrix.identity(3))
    save_transition_matrix(matrix, tmp_path / "matrix.json")
    return tmp_path


_COLUMN_COMMANDS = {
    "compare-strategies": [
        "compare-strategies", "--dataset", "{campaign}", "--log", "{log}",
        "--seed", "1", "--out", "{out}",
    ],
    "calibrate-banded": [
        "calibrate", "--dataset", "{campaign}", "--log", "{log}",
        "--method", "banded", "--out", "{out}",
    ],
    "correct-transitions": [
        "correct", "--dataset", "{annotated}", "--transitions", "{matrix}",
        "--out", "{out}",
    ],
    "correct-seed": [
        "correct", "--dataset", "{annotated}", "--seed", "4", "--out", "{out}",
    ],
    "estimate-transitions": [
        "estimate-transitions", "--dataset", "{annotated}", "--seed", "4",
        "--out", "{out}",
    ],
    "simulate": [
        "simulate", "--dataset", "{annotated}", "--seed", "1",
        "--annotations", "3", "--out", "{out}",
    ],
}


def _argv(template, root):
    names = {
        "campaign": root / "campaign",
        "annotated": root / "annotated",
        "log": root / "log.csv",
        "matrix": root / "matrix.json",
        "out": root / "out",
    }
    return [arg.format(**{k: str(v) for k, v in names.items()}) for arg in template]


@pytest.mark.parametrize("command", list(_COLUMN_COMMANDS))
def test_column_commands_never_build_the_images_view(command, paths, view_builds):
    assert main(_argv(_COLUMN_COMMANDS[command], paths)) == 0
    out = paths / "out"
    assert (out / "results.csv" if command == "simulate" else out).is_file()
    assert view_builds == []


@pytest.mark.parametrize("name", ["campaign", "annotated"])
def test_save_dataset_writes_from_the_columns(paths, view_builds, name):
    loaded = load_dataset(paths / name)
    save_dataset(loaded, paths / "copy")
    assert view_builds == []
    files = sorted(f.name for f in (paths / name).iterdir())
    assert sorted(f.name for f in (paths / "copy").iterdir()) == files
    for file in files:
        assert (paths / "copy" / file).read_bytes() == (paths / name / file).read_bytes()


def test_the_build_counter_sees_gt_by_id_build_the_view(paths, view_builds):
    # gt_by_id reads the view, so the count is live
    loaded = load_dataset(paths / "annotated")
    loaded.gt_by_id()
    loaded.gt_by_id()
    assert view_builds == [loaded]


@pytest.mark.parametrize("fallback", ["first", "random"])
def test_columnar_compare_equals_the_record_api_and_the_per_draw_loop(
    tmp_path, fallback
):
    ds = build_dataset(12, seed=3, jitter=0.4)
    save_dataset(ds, tmp_path / "ds")
    records = campaign_records(
        ds, delta=0.1, annotations_per_image=3, seed=5, proposal_mode="random"
    )
    # interleave the images' records so that later ordinals come first
    order = np.random.default_rng(8).permutation(len(records))
    shuffled = [records[i] for i in order]
    entries = [LogEntry(r.image_id, r.proposal, r.annotated) for r in shuffled]
    save_acceptance_log(entries, tmp_path / "log.csv", ds.meta)

    cfg = ExperimentConfig(
        seed=17, dataset=str(tmp_path / "ds"), reject_fallback=fallback
    )
    got = run_strategy_comparison(cfg, tmp_path / "log.csv", repetitions=3)
    assert {row.strategy for row in got} == set(Strategy)

    loaded = load_dataset(tmp_path / "ds")
    log = load_acceptance_log(tmp_path / "log.csv", loaded.meta)
    assert [e.image_id for e in log] != sorted(e.image_id for e in log)
    want_records = acceptance_records_from_log(log, loaded.gt_by_id())
    sim = _effective_sim_params(cfg, loaded.meta)
    assert sim.reject_fallback == fallback
    for row in got:
        assert row == compare_strategies(want_records, row.strategy, sim, 3, seed=17)
        assert (row.sods, row.mean, row.std) == _per_draw_compare(
            want_records, row.strategy, sim, 3, 17
        )
