"""Row order is not data: with a matrix file given, every command writes the
same per-image rows and the same summary bytes when its input tables list
their rows in another order.

The copy reverses the ``gt.csv`` and ``annotations.csv`` rows and regroups
each log image by image, in reverse image order, keeping each image's own
rows in order.  Runs without ``--transitions`` are left out: the estimated
matrix samples images by row position (README, Reproducibility).
"""

import shutil
from itertools import chain

import numpy as np
import pytest

from annobias import (
    DatasetMeta,
    LabelDistribution,
    SimulationParams,
    simulate_annotation,
)
from annobias.harness.cli import main
from annobias.harness.formats import (
    Dataset,
    ImageRecord,
    LogEntry,
    TransitionMatrixFile,
    save_acceptance_log,
    save_dataset,
    save_transition_matrix,
)

from conftest import two_proposal_dataset

K = 4


def _interleaved(entries):
    """``entries`` in rounds: every image's first row, then every second..."""
    position = {}
    keyed = []
    for i, entry in enumerate(entries):
        n = position[entry.image_id] = position.get(entry.image_id, -1) + 1
        keyed.append((n, i, entry))
    return [entry for _, _, entry in sorted(keyed)]


def _write_inputs(root):
    """A dataset with proposals and raw annotations whose proposal masses
    sit in the default band, its banded log, a two-round log over the same
    ids and a mixing matrix file; both logs interleave their images."""
    rng = np.random.default_rng(21)
    meta = DatasetMeta(tuple(f"c{i}" for i in range(K)), delta=0.1)
    params = SimulationParams(delta=0.1)
    images, banded = [], []
    for i in range(40):
        proposal, mass = i % K, 0.21 + 0.18 * rng.random()
        rest = rng.random(K - 1) + 0.1
        rest *= (1.0 - mass) / rest.sum()
        gt = LabelDistribution(np.insert(rest, proposal, mass))
        classes = tuple(rng.choice(K, size=5, p=gt.probs).tolist())
        images.append(ImageRecord(f"img_{i}", gt, classes, proposal))
        for _ in range(10):
            annotated = simulate_annotation(gt, proposal, params, rng)
            banded.append(LogEntry(f"img_{i}", proposal, annotated))
    save_dataset(Dataset(meta, images), root / "ds")
    save_acceptance_log(_interleaved(banded), root / "banded.csv", meta)

    two_rounds = two_proposal_dataset(seed=0, delta=0.1, n_records=40, k=K)
    save_acceptance_log(_interleaved(two_rounds), root / "two_rounds.csv", meta)

    rows = np.full((K, K), 0.1) + 0.6 * np.eye(K)
    matrix = TransitionMatrixFile(tuple(map(tuple, rows)))
    save_transition_matrix(matrix, root / "tm.json")


def _lines(path):
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return header, rows


def _reversed_rows(path):
    header, rows = _lines(path)
    path.write_text(header + "".join(reversed(rows)), encoding="utf-8")


def _regrouped_log(path):
    header, rows = _lines(path)
    groups = {}
    for row in rows:
        groups.setdefault(row.split(",", 1)[0], []).append(row)
    path.write_text(
        header + "".join(chain.from_iterable(reversed(groups.values()))),
        encoding="utf-8",
    )


@pytest.fixture(scope="module")
def roots(tmp_path_factory):
    """The inputs as written, and a copy with every table reordered."""
    original = tmp_path_factory.mktemp("original")
    _write_inputs(original)
    reordered = tmp_path_factory.mktemp("reordered")
    shutil.copytree(original, reordered, dirs_exist_ok=True)
    for table in ("gt.csv", "annotations.csv"):
        _reversed_rows(reordered / "ds" / table)
    for log in ("banded.csv", "two_rounds.csv"):
        _regrouped_log(reordered / log)
    for name in ("ds/gt.csv", "ds/annotations.csv", "banded.csv", "two_rounds.csv"):
        assert (reordered / name).read_bytes() != (original / name).read_bytes()
    return original, reordered


# command -> (arguments, outputs compared as row sets, outputs compared as bytes)
_COMMANDS = {
    "simulate": (
        ["simulate", "--seed", "1", "--annotations", "3,5", "--transitions", "{tm}"],
        ["results.csv"],
        ["aggregates.csv", "budget.csv"],
    ),
    "correct": (["correct", "--transitions", "{tm}"], ["out"], []),
    "calibrate-banded": (
        ["calibrate", "--log", "{banded}", "--method", "banded"],
        [],
        ["out"],
    ),
    "calibrate-two-proposal": (
        ["calibrate", "--log", "{two_rounds}", "--method", "two-proposal"],
        [],
        ["out"],
    ),
    "compare-strategies": (
        ["compare-strategies", "--log", "{banded}", "--seed", "1"],
        [],
        ["out"],
    ),
}


def _run(command, root):
    """Run ``command`` on the inputs under ``root``; returns its output path."""
    template, _, _ = _COMMANDS[command]
    names = {
        "tm": root / "tm.json",
        "banded": root / "banded.csv",
        "two_rounds": root / "two_rounds.csv",
    }
    out = root / command
    argv = [arg.format(**names) for arg in template]
    assert main([*argv, "--dataset", str(root / "ds"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_reordered_tables_give_the_same_outputs(roots, command):
    original, reordered = (_run(command, root) for root in roots)
    _, row_sets, exact = _COMMANDS[command]

    def output(out, name):
        return out if name == "out" else out / name

    for name in row_sets:
        header, rows = _lines(output(original, name))
        got_header, got_rows = _lines(output(reordered, name))
        assert got_header == header
        assert sorted(got_rows) == sorted(rows)
    for name in exact:
        want = output(original, name).read_bytes()
        assert output(reordered, name).read_bytes() == want
