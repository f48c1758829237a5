"""Golden SHA-256 digests of CLI outputs on a tiny fixed input.

The inputs are literal arrays written through ``save_dataset`` and
``save_acceptance_log``, so nothing here depends on the random streams
except the outputs under test.  A digest may change only together with a
deliberate change of the stream scheme; a refactor of the simulation or
repair code must leave every byte as it was.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from annobias import DatasetMeta, LabelDistribution, Strategy
from annobias.harness.cli import main
from annobias.harness.formats import (
    Dataset,
    ImageRecord,
    LogEntry,
    save_acceptance_log,
    save_dataset,
)

SEED = 20230521

# Soft labels and proposals (None: the argmax is proposed).  Every class is
# the top class of some image; images 3 and 6 leave no mass outside their
# proposal (the reject fallback), image 4 proposes a class with no mass.
# The runs lower the acceptance cap to 0.6 so that such certain proposals
# are rejected often enough for the fallback to show in the outputs.
GTS = np.array(
    [
        [0.70, 0.20, 0.10, 0.00],
        [0.10, 0.60, 0.30, 0.00],
        [0.25, 0.25, 0.25, 0.25],
        [1.00, 0.00, 0.00, 0.00],
        [0.00, 0.00, 0.55, 0.45],
        [0.05, 0.15, 0.30, 0.50],
        [0.00, 0.00, 0.00, 1.00],
        [0.30, 0.00, 0.00, 0.70],
        [0.10, 0.70, 0.10, 0.10],
        [0.15, 0.35, 0.20, 0.30],
    ]
)
PROPOSALS = (0, 2, None, 0, 1, 3, 3, 0, 1, 2)

# (image index, proposal, annotated): three logged events per image.
LOG = [
    (0, 0, 0), (0, 0, 0), (0, 1, 1),
    (1, 2, 1), (1, 1, 1), (1, 2, 2),
    (2, 0, 3), (2, 1, 1), (2, 3, 3),
    (3, 0, 0), (3, 1, 0), (3, 0, 0),
    (4, 1, 2), (4, 2, 2), (4, 3, 2),
    (5, 3, 3), (5, 0, 2), (5, 3, 3),
    (6, 3, 3), (6, 2, 3), (6, 3, 3),
    (7, 0, 3), (7, 3, 3), (7, 1, 0),
    (8, 1, 1), (8, 0, 1), (8, 1, 1),
    (9, 2, 1), (9, 1, 1), (9, 0, 3),
]

SIMULATE = {
    ("ACCEPT_GT", "first"): (
        "15a3cc62dc8f25ae0cf5164cf40ada0b5eaf3e96e8911428d33e4202ef49363f",
        "61257134c6813fc52d213781b2308fe1eb2d5d2c0d79d203c12b0f2534825f55",
    ),
    ("ACCEPT_GT", "random"): (
        "f3d5857c81b4cfcac2d8500a8272a350b4f634bf4caa3e878ec549903eb5ad46",
        "d81b60cbb4afd971e2723ba665f77576fca90e1d269ddeca0f68149c51880826",
    ),
    ("ACCEPT_LIKELY", "first"): (
        "1deceb0b975304ea984062a56e44e3a965e1e7e32795e9a6f6f5f5ea63f90893",
        "8d62705409ee40b94329c6bdba55b1a60b51d9f78c593e5246c9c7fc569a1df1",
    ),
    ("ACCEPT_LIKELY", "random"): (
        "1deceb0b975304ea984062a56e44e3a965e1e7e32795e9a6f6f5f5ea63f90893",
        "8d62705409ee40b94329c6bdba55b1a60b51d9f78c593e5246c9c7fc569a1df1",
    ),
    ("TWO_ACCEPT_GT", "first"): (
        "0dc9fa835a912bea3c2f3a365a4eeac1d90b3c422ba8b016df93792ab6de9972",
        "a20180bb0ddfb833aa651fe0f693ceaea78995d83f53dbad705cb1a4ba1a240a",
    ),
    ("TWO_ACCEPT_GT", "random"): (
        "1a9b106b42c7cc4260cecde8affb762690e947ac4930c2a177d1e83de9d2a5f3",
        "113441f84f65254481a845de7ddc3ee5f6e0ad3db2fc3494e7f7309ada172d1f",
    ),
    ("TWO_ACCEPT_RANDOM", "first"): (
        "68ca31a725d9a9a9ec80c0b2a8e6b6868dbd63e16b1aa8de75a21f18ffa5a02b",
        "2535a06433ae47edec65c7fc9d3a05f2374efbcdd4b8a9b080b034d0660fb4fd",
    ),
    ("TWO_ACCEPT_RANDOM", "random"): (
        "68ca31a725d9a9a9ec80c0b2a8e6b6868dbd63e16b1aa8de75a21f18ffa5a02b",
        "2535a06433ae47edec65c7fc9d3a05f2374efbcdd4b8a9b080b034d0660fb4fd",
    ),
    ("RANDOM", "first"): (
        "154b0c8f816615b0e93561b164c0d871d332d562cc9981d30f65f670c650319f",
        "d74fa8688343b323181b9a1bd95d6887ba1301f7b53247e2720321b8487d82b1",
    ),
    ("RANDOM", "random"): (
        "154b0c8f816615b0e93561b164c0d871d332d562cc9981d30f65f670c650319f",
        "d74fa8688343b323181b9a1bd95d6887ba1301f7b53247e2720321b8487d82b1",
    ),
    ("GT", "first"): (
        "3192ecef9373613fd1c85ffa86e0e076e4ca42d49b3d6e037252c90535a107f3",
        "9edac64a72e802a8072a4cbf4e8d423d1d4780481f3547645fd6e2f23662233a",
    ),
    ("GT", "random"): (
        "3192ecef9373613fd1c85ffa86e0e076e4ca42d49b3d6e037252c90535a107f3",
        "9edac64a72e802a8072a4cbf4e8d423d1d4780481f3547645fd6e2f23662233a",
    ),
    ("LIKELY", "first"): (
        "b9253bf470826ebc118d77d3fa9d2bfa0f58ffff3317b116ce5f8229d0cf0242",
        "a21a215600688387110b19d0b578693cfa025a49a11590e1be0cb211d22990bd",
    ),
    ("LIKELY", "random"): (
        "b9253bf470826ebc118d77d3fa9d2bfa0f58ffff3317b116ce5f8229d0cf0242",
        "a21a215600688387110b19d0b578693cfa025a49a11590e1be0cb211d22990bd",
    ),
}

COMPARE = "69b355e702d6a9dbef96e47794d0f2a1bc1e7fcf56c05f9c480576fa477b9e88"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    meta = DatasetMeta(("a", "b", "c", "d"), delta=0.15)
    images = tuple(
        ImageRecord(f"img{i}", LabelDistribution(gt), None, (), proposal)
        for i, (gt, proposal) in enumerate(zip(GTS, PROPOSALS))
    )
    save_dataset(Dataset(meta, images), root / "ds")
    entries = [LogEntry(f"img{i}", rho, ann) for i, rho, ann in LOG]
    save_acceptance_log(entries, root / "log.csv", meta)
    return root


@pytest.mark.parametrize("fallback", ["first", "random"])
@pytest.mark.parametrize("strategy", [s.name for s in Strategy])
def test_simulate_digests(golden_dir, tmp_path, strategy, fallback):
    out = tmp_path / "out"
    argv = [
        "simulate",
        "--dataset", str(golden_dir / "ds"),
        "--seed", str(SEED),
        "--strategy", strategy,
        "--reject-fallback", fallback,
        "--annotations", "1,3,10",
        "--sim-upper-bound", "0.6",
        "--metrics", "kl,l1",
        "--out", str(out),
    ]
    assert main(argv) == 0
    got = (_sha256(out / "results.csv"), _sha256(out / "aggregates.csv"))
    assert got == SIMULATE[(strategy, fallback)]


def test_compare_strategies_digest(golden_dir, tmp_path):
    out = tmp_path / "compare.csv"
    argv = [
        "compare-strategies",
        "--dataset", str(golden_dir / "ds"),
        "--log", str(golden_dir / "log.csv"),
        "--seed", str(SEED),
        "--repetitions", "3",
        "--sim-upper-bound", "0.6",
        "--out", str(out),
    ]
    assert main(argv) == 0
    assert _sha256(out) == COMPARE
