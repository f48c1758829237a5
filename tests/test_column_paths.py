"""Commands that read the dataset columns: they never build the
``Dataset.images`` view or a ``LogEntry``, and the columnar strategy
comparison equals both the record API and the per-draw reference loop."""

import shutil

import numpy as np
import pytest

from annobias import (
    AnnotationSet,
    DatasetMeta,
    LabelDistribution,
    Strategy,
    compare_strategies,
)
from annobias.core import TransitionMatrix
from annobias.harness import formats
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

from conftest import (
    banded_campaign,
    build_dataset,
    campaign_records,
    two_proposal_dataset,
)
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
    """A banded campaign (dataset and log), an annotated three-class
    dataset on which every class is the top class of some image, an
    identity matrix file, and a six-class two-round log with its dataset
    and a copy of that dataset's ``meta.json`` alone."""
    campaign, entries = banded_campaign(seed=3, delta=0.1, annotations_per_image=10)
    save_dataset(campaign, tmp_path / "campaign")
    save_acceptance_log(entries, tmp_path / "log.csv", campaign.meta)

    ds = build_dataset(30, seed=11, with_proposal=True)
    rng = np.random.default_rng(5)
    images = []
    for img in ds.images:
        classes = tuple(int(c) for c in rng.choice(3, size=4, p=img.gt.probs))
        images.append(ImageRecord(img.image_id, img.gt, classes, img.proposal))
    save_dataset(Dataset(ds.meta, tuple(images)), tmp_path / "annotated")

    matrix = TransitionMatrixFile.from_matrix(TransitionMatrix.identity(3))
    save_transition_matrix(matrix, tmp_path / "matrix.json")

    meta = DatasetMeta(tuple(f"c{i}" for i in range(6)))
    entries = two_proposal_dataset(seed=0, delta=0.1, n_records=30)
    gt = LabelDistribution(np.full(6, 1 / 6))
    ids = dict.fromkeys(e.image_id for e in entries)
    images = [ImageRecord(image_id, gt, (), None) for image_id in ids]
    save_dataset(Dataset(meta, tuple(images)), tmp_path / "six")
    save_acceptance_log(entries, tmp_path / "two_rounds.csv", meta)
    (tmp_path / "meta_only").mkdir()
    shutil.copy(tmp_path / "six" / "meta.json", tmp_path / "meta_only")
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
        "six": root / "six",
        "two_rounds": root / "two_rounds.csv",
    }
    return [arg.format(**{k: str(v) for k, v in names.items()}) for arg in template]


@pytest.mark.parametrize("command", list(_COLUMN_COMMANDS))
def test_column_commands_never_build_the_images_view(command, paths, view_builds):
    assert main(_argv(_COLUMN_COMMANDS[command], paths)) == 0
    out = paths / "out"
    assert (out / "results.csv" if command == "simulate" else out).is_file()
    assert view_builds == []


_LOG_COMMANDS = {
    "compare-strategies": _COLUMN_COMMANDS["compare-strategies"],
    "calibrate-banded": _COLUMN_COMMANDS["calibrate-banded"],
    "calibrate-two-proposal": [
        "calibrate", "--dataset", "{six}", "--log", "{two_rounds}",
        "--method", "two-proposal", "--out", "{out}",
    ],
}


@pytest.mark.parametrize("command", list(_LOG_COMMANDS))
def test_log_commands_build_no_log_entries(command, paths, monkeypatch):
    argv = _argv(_LOG_COMMANDS[command], paths)
    assert main(argv) == 0
    want = (paths / "out").read_bytes()

    def refuse(*args):
        raise AssertionError("a command built a LogEntry")

    monkeypatch.setattr(formats, "LogEntry", refuse)
    assert main(argv) == 0
    assert (paths / "out").read_bytes() == want


@pytest.mark.parametrize("command", list(_LOG_COMMANDS))
def test_log_commands_build_no_annotation_set(command, paths, monkeypatch):
    argv = _argv(_LOG_COMMANDS[command], paths)
    assert main(argv) == 0
    want = (paths / "out").read_bytes()
    built = []
    check = AnnotationSet.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(AnnotationSet, "__post_init__", counted)
    assert main(argv) == 0
    assert len(built) == 0
    assert (paths / "out").read_bytes() == want


def test_two_proposal_calibrate_needs_only_meta_json(paths):
    argv = _argv(_LOG_COMMANDS["calibrate-two-proposal"], paths)
    assert main(argv) == 0
    want = (paths / "out").read_bytes()
    (paths / "out").unlink()
    argv[argv.index(str(paths / "six"))] = str(paths / "meta_only")
    assert main(argv) == 0
    assert (paths / "out").read_bytes() == want


def _output(out):
    """The bytes of a command's output file, or of each table in its output
    directory (whose ``manifest.json`` holds a timestamp), then removed."""
    if out.is_file():
        data = out.read_bytes()
        out.unlink()
        return data
    data = {f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"}
    shutil.rmtree(out)
    return data


def test_banded_calibrate_reads_no_annotations_beside_gt_csv(paths, capsys):
    # beside a gt.csv these commands read only it and meta.json
    commands = ["calibrate-banded", "compare-strategies", "simulate", "estimate-transitions"]
    annotated, campaign = str(paths / "annotated"), str(paths / "campaign")
    runs = [
        [arg.replace(annotated, campaign) for arg in _argv(_COLUMN_COMMANDS[c], paths)]
        for c in commands
    ]
    want = []
    for argv in runs:
        assert main(argv) == 0
        want.append(_output(paths / "out"))
    (paths / "campaign" / "annotations.csv").write_text(
        "image_id,annotator_idx,class\nimg_0,0,class_1\nghost,0,class_0\n",
        encoding="utf-8",
    )
    for argv, output in zip(runs, want):
        assert main(argv) == 0
        assert _output(paths / "out") == output
    # correct reads the tallies, so the orphan annotation still fails it
    argv = _argv(_COLUMN_COMMANDS["correct-transitions"], paths)
    argv[argv.index(str(paths / "annotated"))] = str(paths / "campaign")
    assert main(argv) == 2
    assert "image_id 'ghost' not present in gt.csv" in capsys.readouterr().err


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
