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
    TransitionMatrixFile,
    save_acceptance_log,
    save_dataset,
    save_transition_matrix,
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

# The repair flags other than the default, under the one-stage and a
# two-stage acceptance strategy: (results.csv, aggregates.csv).
REPAIR_FLAGS = {
    "no-bc": ("--no-bc",),
    "no-cb": ("--no-cb",),
    "cb-biased": ("--cb-input", "biased"),
}
SIMULATE_REPAIR = {
    ("ACCEPT_GT", "no-bc"): (
        "60e5db48a0e716562a3c34affbecfafa265fa54d09c71802ef472c6fa358a558",
        "629b2a9a4d919d247d2bc0f5ca79472ceff28a43558130097bd2e422122f5ae8",
    ),
    ("ACCEPT_GT", "no-cb"): (
        "dee75c839fd2737cc79c599447c71e688ce3349beac566aeed0f9ee1995cda06",
        "6c7a49cede48ae582bf2f27e8a4d39a62eb027d02eafcf9750de22f9e2df997a",
    ),
    ("ACCEPT_GT", "cb-biased"): (
        "7b0c93c4bf3e30bf7f63baa47365654388da884670f4a697c53e697329de8120",
        "e524c72e7fae3d8794528d9f2c6dcf0b753c5c4bf378948be2485ec04e44740b",
    ),
    ("TWO_ACCEPT_GT", "no-bc"): (
        "9b2753c46d5ff7248511be62217278039e24ee0d8562453acf3acbcb1bb8199b",
        "8b79a9dc17287bd7a096c39153f297c6bd212ff6a756fd529ab9ed0207987879",
    ),
    ("TWO_ACCEPT_GT", "no-cb"): (
        "5f135b5504523a1c8d1a75802f1f16b56db5b1ac1cdb4603d67dffbed32b33f5",
        "36d0ab426d370b7d3aa3fe9414c0ddb74e567a3c8c2c555d1d88d35274e16940",
    ),
    ("TWO_ACCEPT_GT", "cb-biased"): (
        "aa01ddbd0f4680fc605fb482d1ad33ac92ea8635384bf979d4352dae7747dcb5",
        "78e4b4a2981c7576d91e3ccfab38723e13a73086d7da8695cfaa1de1fdfe0f64",
    ),
}

# Raw annotations and explicit proposals for `correct`, on the same soft
# labels.  Image 3 annotates only its proposal, image 4 never does, and
# the totals differ from image to image.
ANNOTATIONS = (
    (0, 0, 0, 1, 2),
    (2, 1, 1),
    (0, 1, 2, 3),
    (0, 0, 0, 0, 0, 0),
    (2, 3, 2, 3),
    (3,),
    (3, 3, 2),
    (0, 3, 3, 3, 1),
    (1, 1, 0, 1, 1, 1, 1, 2, 1, 1),
    (2, 2),
)
CORRECT_PROPOSALS = (0, 2, 0, 0, 1, 3, 3, 0, 1, 2)
MATRIX = (
    (0.70, 0.10, 0.10, 0.10),
    (0.05, 0.80, 0.10, 0.05),
    (0.10, 0.20, 0.60, 0.10),
    (0.00, 0.10, 0.20, 0.70),
)
CORRECT = {
    "default": "afa66ccd5bfc37e975b975550d1836a7edf0009edb51826dc8a53d4c70756daa",
    "no-bc": "36d0753b9f9165b4bcfc6bcc1698c6b7e097dd7f410392c816e24d7488d587f6",
    "no-cb": "7c585d86ba9ce372e2d4cb9b6e55ae95ade15a4cafcb1258df980ce3bb322d8d",
    "cb-biased": "5f72025fa739fc81377ac6ae230b708023d08d69efee8e3188ad4ab4aa108cd2",
}
# the default flags with the matrix estimated from the soft labels
CORRECT_ESTIMATED = (
    "49311053aebad120f523eda908511fac99b964db212faf0833ea42347c6d3edc"
)

# A two-round campaign on the same images: (image index, proposal,
# annotated classes) per round, every first round logged before any second
# round.  Images 1-4 hit the four extreme acceptance rates and image 7 has
# no annotation outside its two proposals (a non-finite candidate).
TWO_ROUNDS = (
    ((0, 0, (0, 0, 1, 0)), (0, 1, (1, 0, 2, 1))),
    ((1, 2, (2, 2, 2)), (1, 1, (1, 2))),
    ((2, 3, (0, 1, 2)), (2, 0, (0, 3))),
    ((3, 0, (0, 1, 0)), (3, 2, (2, 2))),
    ((4, 2, (2, 3, 2, 1)), (4, 3, (2, 2, 1))),
    ((5, 3, (3, 0, 3, 3, 2)), (5, 0, (0, 1, 0, 2, 3))),
    ((6, 3, (3, 3, 0)), (6, 2, (2, 0, 1, 0))),
    ((7, 0, (0, 3, 0)), (7, 3, (3, 0, 0))),
    ((8, 1, (1, 1, 0, 2)), (8, 0, (0, 1, 2, 2))),
    ((9, 2, (2, 1, 3)), (9, 1, (1, 3, 0))),
)

# calibrate's JSON report: the log and the flags, then the digest.  The
# banded runs widen the band to (0.1, 0.6], which holds records of seven
# images, two of them on an edge of the band.
CALIBRATE = {
    "banded-mean": (
        ("log.csv", "--method", "banded", "--band", "0.1,0.6"),
        "841fabd5e223ad5c3bdabe556a963630dc2fb521f8aa88da0e3d45bc8968e62a",
    ),
    "two-proposal": (
        ("two_rounds.csv", "--method", "two-proposal"),
        "767ce2eb98bc3a572ffedee92f6493ba98b0219fc52efeb28f865b98479a81a1",
    ),
}

# estimate-transitions' JSON file, per --n-images: above the pool of ten
# images (drawn with replacement) and below it (a permutation)
ESTIMATE_TRANSITIONS = {
    25: "d19b2d50b6143887b0702de8a88589b5e980eb0dbb7b3ea3267bd811c1d67048",
    7: "1a36a994aad3ba096d3dabe2dd530bd7cbd8e79b080907517f7ba09c01229e5b",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    meta = DatasetMeta(("a", "b", "c", "d"), delta=0.15)
    images = tuple(
        ImageRecord(f"img{i}", LabelDistribution(gt), (), proposal)
        for i, (gt, proposal) in enumerate(zip(GTS, PROPOSALS))
    )
    save_dataset(Dataset(meta, images), root / "ds")
    entries = [LogEntry(f"img{i}", rho, ann) for i, rho, ann in LOG]
    save_acceptance_log(entries, root / "log.csv", meta)
    two_rounds = [
        LogEntry(f"img{i}", rho, ann)
        for r in (0, 1)
        for i, rho, annotated in (rounds[r] for rounds in TWO_ROUNDS)
        for ann in annotated
    ]
    save_acceptance_log(two_rounds, root / "two_rounds.csv", meta)

    annotated = tuple(
        ImageRecord(f"img{i}", LabelDistribution(gt), classes, proposal)
        for i, (gt, classes, proposal) in enumerate(
            zip(GTS, ANNOTATIONS, CORRECT_PROPOSALS)
        )
    )
    save_dataset(Dataset(meta, annotated), root / "annotated")
    save_transition_matrix(TransitionMatrixFile(MATRIX), root / "matrix.json")
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


@pytest.mark.parametrize("flags", sorted(REPAIR_FLAGS))
@pytest.mark.parametrize("strategy", ["ACCEPT_GT", "TWO_ACCEPT_GT"])
def test_simulate_repair_flag_digests(golden_dir, tmp_path, strategy, flags):
    out = tmp_path / "out"
    argv = [
        "simulate",
        "--dataset", str(golden_dir / "ds"),
        "--seed", str(SEED),
        "--strategy", strategy,
        "--annotations", "1,3,10",
        "--sim-upper-bound", "0.6",
        "--metrics", "kl,l1",
        *REPAIR_FLAGS[flags],
        "--out", str(out),
    ]
    assert main(argv) == 0
    got = (_sha256(out / "results.csv"), _sha256(out / "aggregates.csv"))
    assert got == SIMULATE_REPAIR[(strategy, flags)]


@pytest.mark.parametrize("flags", sorted(CORRECT))
def test_correct_digests(golden_dir, tmp_path, flags):
    out = tmp_path / "repaired.csv"
    argv = [
        "correct",
        "--dataset", str(golden_dir / "annotated"),
        "--transitions", str(golden_dir / "matrix.json"),
        *REPAIR_FLAGS.get(flags, ()),
        "--out", str(out),
    ]
    assert main(argv) == 0
    assert _sha256(out) == CORRECT[flags]


def test_correct_estimated_matrix_digest(golden_dir, tmp_path):
    out = tmp_path / "repaired.csv"
    argv = [
        "correct",
        "--dataset", str(golden_dir / "annotated"),
        "--seed", str(SEED),
        "--out", str(out),
    ]
    assert main(argv) == 0
    assert _sha256(out) == CORRECT_ESTIMATED


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


@pytest.mark.parametrize("run", sorted(CALIBRATE))
def test_calibrate_digests(golden_dir, tmp_path, capsys, run):
    (log, *flags), digest = CALIBRATE[run]
    out = tmp_path / "calibration.json"
    argv = [
        "calibrate",
        "--dataset", str(golden_dir / "ds"),
        "--log", str(golden_dir / log),
        *flags,
        "--n-target", "1",
        "--out", str(out),
    ]
    assert main(argv) == 0
    assert _sha256(out) == digest
    # banded estimates from log rows, two-proposal from images
    count = (
        f"images: {len(TWO_ROUNDS)}" if run == "two-proposal" else f"records: {len(LOG)}"
    )
    assert capsys.readouterr().out.splitlines()[2] == count


@pytest.mark.parametrize("n_images", sorted(ESTIMATE_TRANSITIONS))
def test_estimate_transitions_digests(golden_dir, tmp_path, n_images):
    out = tmp_path / "matrix.json"
    argv = [
        "estimate-transitions",
        "--dataset", str(golden_dir / "ds"),
        "--seed", str(SEED),
        "--n-images", str(n_images),
        "--n-annos", "5",
        "--out", str(out),
    ]
    assert main(argv) == 0
    assert _sha256(out) == ESTIMATE_TRANSITIONS[n_images]
