"""Seeded workload inputs, drawn without the code under test.

Every input file comes from one ``numpy.random.Generator`` seeded by the
benchmark's ``--seed``.  The acceptance law (accept the proposal with
probability ``delta + (upper_bound - delta) * p``, else draw from the
remaining ground-truth mass) is written out here, not taken from
``annobias.rng`` or ``annobias.simulation``, so a change to the program's
random-stream scheme leaves the inputs byte-identical.

The files follow the dataset layout documented in
``annobias.harness.formats``: ``meta.json``, ``gt.csv`` (with an optional
``proposal`` column), ``annotations.csv``, ``acceptance_log.csv`` and a
confusion-matrix JSON file.  Floats are written with ``repr`` so they
round-trip exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

DELTA = 0.1
UPPER_BOUND = 0.99
MU = 0.75
BAND = (0.2, 0.4)
# The compare log is drawn with a larger offset.  Near 0.1 the acceptance
# law and the two-stage laws bin so alike that 600 records ranked the
# drawing law first on 2 of 5 seeds at 0.1 and 44 of 47 at 0.3; at 0.5 with
# 1800 records its lead over the runner-up averaged 6.5 standard deviations
# over 30 seeds.
COMPARE_DELTA = 0.5
COMPARE_PER_IMAGE = 3
INGEST_PER_IMAGE = 10


def class_names(k: int) -> list:
    return [f"c{i:03d}" for i in range(k)]


def dirichlet_labels(rng: np.random.Generator, n: int, k: int, alpha: float):
    """``n`` soft labels over ``k`` classes, renormalized in float64."""
    p = rng.dirichlet(np.full(k, alpha), size=n)
    return p / p.sum(axis=1, keepdims=True)


def accept_gt_draws(
    rng: np.random.Generator, gt, proposal: int, n: int, delta: float = DELTA
):
    """``n`` annotated classes for one image under the acceptance law."""
    k = gt.size
    accept = delta + (UPPER_BOUND - delta) * gt[proposal]
    out = np.full(n, proposal, dtype=np.int64)
    rejected = rng.random(n) > accept
    m = int(rejected.sum())
    if m:
        rest = gt.copy()
        rest[proposal] = 0.0
        total = rest.sum()
        if total > 0.0:
            out[rejected] = rng.choice(k, size=m, p=rest / total)
        else:
            out[rejected] = 0 if proposal != 0 else 1
    return out


def in_band_proposals(gt) -> np.ndarray:
    """Per image, the heaviest class whose mass lies in ``BAND``, else the argmax."""
    lo, hi = BAND
    masked = np.where((gt > lo) & (gt <= hi), gt, -1.0)
    best = masked.argmax(axis=1)
    has = masked.max(axis=1) > 0.0
    return np.where(has, best, gt.argmax(axis=1))


def class_mean_matrix(gt) -> np.ndarray:
    """Row ``c``: mean soft label of the images whose top class is ``c``.

    A class that is never on top gets the one-hot row, so every row is a
    valid distribution.
    """
    k = gt.shape[1]
    top = gt.argmax(axis=1)
    rows = np.eye(k)
    for c in range(k):
        members = gt[top == c]
        if len(members):
            rows[c] = members.mean(axis=0)
    return rows / rows.sum(axis=1, keepdims=True)


def _fmt(x) -> str:
    return repr(float(x))


def _write(path: Path, text: str, digests: dict, root: Path) -> None:
    data = text.encode("utf-8")
    path.write_bytes(data)
    digests[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()


def _write_meta(dataset: Path, names, digests, root, delta=DELTA) -> None:
    meta = {"class_names": names, "delta": delta, "upper_bound": UPPER_BOUND, "mu": MU}
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    _write(dataset / "meta.json", text, digests, root)


def _write_gt(dataset: Path, gt, names, proposals, digests, root) -> None:
    k = gt.shape[1]
    header = ["image_id"] + [f"p_{i}" for i in range(k)]
    if proposals is not None:
        header.append("proposal")
    lines = [",".join(header)]
    for i, row in enumerate(gt):
        cells = [f"img{i:06d}"] + [_fmt(v) for v in row]
        if proposals is not None:
            cells.append(names[proposals[i]])
        lines.append(",".join(cells))
    _write(dataset / "gt.csv", "\n".join(lines) + "\n", digests, root)


def _write_events(path: Path, header, rows, digests, root) -> None:
    lines = [header] + [",".join(str(c) for c in row) for row in rows]
    _write(path, "\n".join(lines) + "\n", digests, root)


def make_simulate(root: Path, seed: int, n_images: int) -> dict:
    """K=10 Dirichlet(0.3) soft labels with the argmax as proposal column."""
    rng = np.random.default_rng([seed, 1])
    k = 10
    names = class_names(k)
    gt = dirichlet_labels(rng, n_images, k, 0.3)
    dataset = root / "dataset"
    dataset.mkdir(parents=True)
    digests = {}
    _write_meta(dataset, names, digests, root)
    _write_gt(dataset, gt, names, gt.argmax(axis=1), digests, root)
    return digests


def make_compare(root: Path, seed: int, n_images: int) -> dict:
    """K=10 soft labels and a 3-records-per-image log drawn by the law.

    Half of the records (a seeded random half) propose the argmax, the
    rest a uniformly drawn class, so low-mass proposals are common and the
    two-stage strategies reach their second acceptance.
    """
    rng = np.random.default_rng([seed, 2])
    k, per_image = 10, COMPARE_PER_IMAGE
    names = class_names(k)
    gt = dirichlet_labels(rng, n_images, k, 0.3)
    n_records = n_images * per_image
    argmax_half = rng.permutation(n_records) < n_records // 2
    uniform = rng.integers(0, k, size=n_records)
    rows = []
    for r in range(n_records):
        i = r // per_image
        proposal = int(gt[i].argmax()) if argmax_half[r] else int(uniform[r])
        annotated = int(accept_gt_draws(rng, gt[i], proposal, 1, COMPARE_DELTA)[0])
        rows.append((f"img{i:06d}", names[proposal], names[annotated]))
    dataset = root / "dataset"
    dataset.mkdir(parents=True)
    digests = {}
    _write_meta(dataset, names, digests, root, COMPARE_DELTA)
    _write_gt(dataset, gt, names, None, digests, root)
    _write_events(
        dataset / "acceptance_log.csv",
        "image_id,proposal_class,annotated_class",
        rows,
        digests,
        root,
    )
    return digests


def make_ingest(root: Path, seed: int, n_images: int) -> dict:
    """K=100 Dirichlet(0.05) labels, raw annotations, their log, a matrix.

    Each image proposes its heaviest in-band class when it has one, so
    most records fall in the banded estimator's band.  The annotations and
    the acceptance log hold the same events.  ``transitions.json`` is the
    class-mean matrix of the soft labels: ``annobias correct`` cannot
    estimate one at K=100 from its fixed 100-image sample.
    """
    rng = np.random.default_rng([seed, 3])
    k = 100
    names = class_names(k)
    gt = dirichlet_labels(rng, n_images, k, 0.05)
    proposals = in_band_proposals(gt)
    annotations, log = [], []
    for i in range(n_images):
        image_id = f"img{i:06d}"
        draws = accept_gt_draws(rng, gt[i], int(proposals[i]), INGEST_PER_IMAGE)
        for j, c in enumerate(draws):
            annotations.append((image_id, j, names[c]))
            log.append((image_id, names[proposals[i]], names[c]))
    dataset = root / "dataset"
    dataset.mkdir(parents=True)
    digests = {}
    _write_meta(dataset, names, digests, root)
    _write_gt(dataset, gt, names, proposals, digests, root)
    _write_events(
        dataset / "annotations.csv",
        "image_id,annotator_idx,class",
        annotations,
        digests,
        root,
    )
    _write_events(
        dataset / "acceptance_log.csv",
        "image_id,proposal_class,annotated_class",
        log,
        digests,
        root,
    )
    matrix = {
        "class_names": names,
        "metadata": {"source": "class-mean soft labels", "seed": seed},
        "rows": [[float(v) for v in row] for row in class_mean_matrix(gt)],
    }
    text = json.dumps(matrix, indent=2, sort_keys=True) + "\n"
    _write(root / "transitions.json", text, digests, root)
    return digests
