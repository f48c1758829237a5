"""Shared builders for synthetic datasets, logs, and distributions."""

from __future__ import annotations

import numpy as np
import pytest

from annobias import (
    AcceptanceRecord,
    DatasetMeta,
    LabelDistribution,
    SimulationParams,
    simulate_annotation,
    simulate_annotation_set,
    substream,
)
from annobias.harness.formats import Dataset, ImageRecord, LogEntry, save_dataset


def rand_distribution(
    rng: np.random.Generator, k: int, floor: float = 0.02
) -> LabelDistribution:
    """Random distribution with every class above a small floor."""
    v = rng.random(k) + floor * k
    return LabelDistribution(v / v.sum())


def prototype_gts(
    rng: np.random.Generator, n: int, prototypes: np.ndarray, jitter: float = 0.05
):
    """Per-image soft labels clustered around per-class prototype rows.

    Image i belongs to class i mod K and gets that class's prototype plus
    a little positive noise, renormalized.
    """
    k = prototypes.shape[0]
    out = []
    for i in range(n):
        base = prototypes[i % k] + jitter * rng.random(k)
        out.append(LabelDistribution(base / base.sum()))
    return out


DEFAULT_PROTOTYPES_3 = np.array(
    [
        [0.70, 0.20, 0.10],
        [0.15, 0.70, 0.15],
        [0.10, 0.25, 0.65],
    ]
)


def build_dataset(
    n_images: int,
    seed: int = 7,
    prototypes: np.ndarray = DEFAULT_PROTOTYPES_3,
    delta: float = 0.1,
    with_proposal: bool = False,
    jitter: float = 0.05,
) -> Dataset:
    """In-memory synthetic dataset with clustered soft labels."""
    k = prototypes.shape[0]
    rng = substream(seed, "test-dataset")
    names = tuple(f"class_{i}" for i in range(k))
    meta = DatasetMeta(names, delta=delta)
    gts = prototype_gts(rng, n_images, prototypes, jitter)
    images = []
    for i, gt in enumerate(gts):
        proposal = int(np.argmax(gt.probs)) if with_proposal else None
        images.append(ImageRecord(f"img_{i:04d}", gt, (), proposal))
    return Dataset(meta, tuple(images))


@pytest.fixture
def dataset_dir(tmp_path):
    """A small synthetic dataset written to disk."""
    ds = build_dataset(30, seed=11)
    path = tmp_path / "ds"
    save_dataset(ds, path)
    return path


def campaign_records(
    dataset: Dataset,
    delta: float,
    annotations_per_image: int,
    seed: int,
    upper_bound: float = 0.99,
    proposal_mode: str = "argmax",
):
    """Proposal-acceptance records simulated from a dataset's soft labels.

    ``proposal_mode="argmax"`` proposes each image's top class (a strong
    proposer); ``"random"`` proposes uniformly (a proposer uncorrelated
    with the ground truth).
    """
    params = SimulationParams(delta=delta, upper_bound=upper_bound)
    records = []
    for img in dataset.images:
        rng = substream(seed, "test-log", img.image_id)
        if proposal_mode == "random":
            k = img.gt.num_classes
            proposal = min(int(rng.random() * k), k - 1)
        elif img.proposal is not None:
            proposal = img.proposal
        else:
            proposal = int(np.argmax(img.gt.probs))
        for _ in range(annotations_per_image):
            annotated = simulate_annotation(img.gt, proposal, params, rng)
            records.append(
                AcceptanceRecord(img.image_id, proposal, annotated, img.gt)
            )
    return records


def banded_campaign(seed, delta, n_images=20, annotations_per_image=100):
    """Dataset whose proposal masses sit in (0.2, 0.4), plus its log.

    Every image is proposed class 0 with ground-truth mass drawn from
    (0.21, 0.39), then annotated under the acceptance model.  Returns the
    in-memory dataset and the matching acceptance-log entries.
    """
    rng = substream(seed, "cal-banded")
    params = SimulationParams(delta=delta)
    meta = DatasetMeta(("class_0", "class_1", "class_2"), delta=delta)
    images, entries = [], []
    for i in range(n_images):
        p = 0.21 + 0.18 * rng.random()
        rest = rng.random(2) + 0.1
        rest = rest / rest.sum() * (1.0 - p)
        gt = LabelDistribution([p, rest[0], rest[1]])
        images.append(ImageRecord(f"img_{i}", gt, (), 0))
        for _ in range(annotations_per_image):
            ann = simulate_annotation(gt, 0, params, rng)
            entries.append(LogEntry(f"img_{i}", 0, ann))
    return Dataset(meta, tuple(images)), entries


def two_proposal_dataset(seed, delta, n_records=200, k=6, repetitions=50):
    """Two-round annotation log rows with proposals independent of the labels.

    Ground truths are mildly flattened random distributions; each image's
    two distinct proposals are drawn uniformly, so proposal choice carries
    no information about the true class.  Each image's first round comes
    before its second, and each round lists its annotations in class order.
    """
    rng = substream(seed, "cal-two-k")
    params = SimulationParams(delta=delta, repetitions=repetitions)
    entries = []
    for i in range(n_records):
        w = rng.random(k) + 0.3
        gt = LabelDistribution(w / w.sum())
        rho_a = min(int(rng.random() * k), k - 1)
        j = min(int(rng.random() * (k - 1)), k - 2)
        rho_b = j if j < rho_a else j + 1
        for rho in (rho_a, rho_b):
            tally = simulate_annotation_set(gt, rho, params, rng)
            classes = np.repeat(np.arange(k), tally.counts).tolist()
            entries += [LogEntry(f"img_{i}", rho, c) for c in classes]
    return entries
