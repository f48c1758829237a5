"""The array engine, the array repair and the batched simulate driver.

Each is checked against its one-row form: a row of the engine against
``simulate_strategy_set`` on the row's own generator, the array repair
and validation against the per-row objects, and ``simulate`` against a
per-cell reference loop written out here.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annobias import (
    AnnotationSet,
    CorrectionParams,
    DatasetMeta,
    DegenerateDistributionError,
    LabelDistribution,
    SimulationParams,
    Strategy,
    TransitionMatrix,
    kl_divergence,
    repair_labels,
    simulate_strategy_set,
    soft_gt_from_annotations,
    substream,
)
from annobias.core import _validated_rows
from annobias.harness import experiments
from annobias.harness.config import ExperimentConfig
from annobias.harness.experiments import (
    run_label_correction,
    run_simulation_experiment,
)
from annobias.harness.formats import (
    Dataset,
    ImageRecord,
    TransitionMatrixFile,
    save_dataset,
    save_transition_matrix,
)
from annobias.metrics import aggregate_scores
from annobias.rng import uniforms
from annobias.core import _draw_class, _uniform_index
from annobias.simulation import (
    _MAX_UNIFORMS_PER_DRAW,
    _other_class,
    _rejected_class,
    _simulate_counts,
)

_NEAR_ONE = float(np.nextafter(1.0, 0.0))


def _uniforms_per_row(strategy, n):
    """Most uniforms one engine row reads for ``n`` draws."""
    if strategy is Strategy.LIKELY:
        return 0
    if strategy is Strategy.ACCEPT_GT:
        return 2 * n
    if strategy in (Strategy.TWO_ACCEPT_GT, Strategy.TWO_ACCEPT_RANDOM):
        return _MAX_UNIFORMS_PER_DRAW * n
    return n


@st.composite
def _rows(draw):
    """Soft-label rows and proposals with the engine's edge cases.

    Row shapes: as drawn (with zero-mass classes), all mass on the
    proposal, a proposal with no mass, and masses summing a hair under 1
    so a uniform near 1 walks off the cumulative sum.
    """
    k = draw(st.integers(2, 7))
    n_rows = draw(st.integers(1, 6))
    probs, proposals = [], []
    for _ in range(n_rows):
        weights = draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=k, max_size=k
            )
        )
        proposal = draw(st.integers(0, k - 1))
        shape = draw(st.sampled_from(["as_drawn", "certain", "unsupported", "short"]))
        p = np.asarray(weights)
        if shape == "unsupported":
            p[proposal] = 0.0
        if shape == "certain" or p.sum() == 0.0:
            p = np.zeros(k)
            p[proposal] = 1.0
        else:
            p = p / p.sum()
            if shape == "short":
                p = p * (1.0 - 1e-10)
        probs.append(LabelDistribution(p).probs)
        proposals.append(proposal)
    return np.array(probs), np.array(proposals)


class _Replay:
    """Generator stand-in that hands out one fixed row of uniforms."""

    def __init__(self, row):
        self._row = list(row)

    def random(self, size=None):
        if size is None:
            return self._row.pop(0)
        out, self._row = self._row[:size], self._row[size:]
        assert len(out) == size, "read past the row"
        return np.array(out)


@settings(max_examples=150, deadline=None)
@given(
    rows=_rows(),
    strategy=st.sampled_from(list(Strategy)),
    fallback=st.sampled_from(["first", "random"]),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**64 - 1),
    delta=st.sampled_from([0.0, 0.1, 0.5]),
)
def test_engine_rows_match_per_image_streams(rows, strategy, fallback, n, seed, delta):
    probs, proposals = rows
    p = SimulationParams(delta=delta, upper_bound=0.6, reject_fallback=fallback)
    ids = [f"im{i}" for i in range(len(probs))]
    m = _uniforms_per_row(strategy, n)
    draws = uniforms(seed, ("simulate", n, ids), m)
    got = _simulate_counts(strategy, probs, proposals, n, p, draws)
    for row, image_id in enumerate(ids):
        want = simulate_strategy_set(
            strategy,
            LabelDistribution(probs[row]),
            proposals[row],
            SimulationParams(delta, 0.6, n, fallback),
            substream(seed, "simulate", n, image_id),
        )
        np.testing.assert_array_equal(got[row], want.counts)


def _reference_classes(strategy, probs, proposal, p, n, rng):
    """The ``n`` classes of one image, each strategy's stage order written out.

    Draw by draw with scalar ``rng.random()`` reads; only the class laws
    (rejection walk, uniform index, inverse CDF) are the package's own, the
    row laws called on a one-row batch.
    """
    k = probs.size

    def accepts(c):
        return rng.random() <= p.delta + (p.upper_bound - p.delta) * probs[c]

    def one_row(draw, *args):
        return int(draw(probs[None], *args, np.array([rng.random()]))[0])

    def rejected():
        return one_row(_rejected_class, np.array([proposal]), p.reject_fallback)

    if strategy is Strategy.LIKELY:
        return [int(np.argmax(probs))] * n
    if strategy is Strategy.RANDOM:
        return [int(_uniform_index(k, rng.random())) for _ in range(n)]
    if strategy is Strategy.GT:
        return [one_row(_draw_class) for _ in range(n)]
    if strategy is Strategy.ACCEPT_GT:
        kept = [accepts(proposal) for _ in range(n)]  # all acceptances first
        return [proposal if keep else rejected() for keep in kept]
    if strategy is Strategy.ACCEPT_LIKELY:
        masked = probs.copy()
        masked[proposal] = -1.0
        other = int(np.argmax(masked))
        return [proposal if accepts(proposal) else other for _ in range(n)]
    likely = int(np.argmax(probs))
    classes = []
    for _ in range(n):
        if accepts(proposal):
            classes.append(proposal)
        elif likely != proposal and accepts(likely):
            classes.append(likely)
        elif strategy is Strategy.TWO_ACCEPT_RANDOM:
            classes.append(int(_other_class(k, proposal, rng.random())))
        else:
            classes.append(rejected())
    return classes


@settings(max_examples=150, deadline=None)
@given(
    rows=_rows(),
    strategy=st.sampled_from(list(Strategy)),
    fallback=st.sampled_from(["first", "random"]),
    n=st.integers(1, 30),
    seed=st.integers(0, 2**64 - 1),
    delta=st.sampled_from([0.0, 0.1, 0.5]),
)
def test_one_row_tallies_follow_the_written_out_stage_order(
    rows, strategy, fallback, n, seed, delta
):
    probs, proposals = rows
    p = SimulationParams(delta, 0.6, n, fallback)
    for row in range(len(probs)):
        gt = LabelDistribution(probs[row])
        mine, theirs = substream(seed, row), substream(seed, row)
        got = simulate_strategy_set(strategy, gt, proposals[row], p, mine)
        want = _reference_classes(strategy, gt.probs, proposals[row], p, n, theirs)
        tally = np.bincount(want, minlength=gt.num_classes)
        np.testing.assert_array_equal(got.counts, tally)
        assert mine.random() == theirs.random()  # both read as many uniforms


@settings(max_examples=150, deadline=None)
@given(
    rows=_rows(),
    strategy=st.sampled_from(list(Strategy)),
    fallback=st.sampled_from(["first", "random"]),
    n=st.integers(1, 5),
    data=st.data(),
)
def test_engine_rows_match_one_row_calls_on_edge_uniforms(
    rows, strategy, fallback, n, data
):
    # uniforms 0 and just below 1 reach the cumulative-sum overflow
    probs, proposals = rows
    m = _uniforms_per_row(strategy, n)
    unit = st.one_of(st.just(0.0), st.just(_NEAR_ONE), st.floats(0.0, _NEAR_ONE))
    row_of_draws = st.lists(unit, min_size=m, max_size=m)
    draws = data.draw(
        st.lists(row_of_draws, min_size=len(probs), max_size=len(probs))
    )
    draws = np.array(draws).reshape(len(probs), m)
    p = SimulationParams(0.1, 0.6, n, fallback)
    got = _simulate_counts(strategy, probs, proposals, n, p, draws)
    for row in range(len(probs)):
        gt = LabelDistribution(probs[row])
        want = simulate_strategy_set(
            strategy, gt, proposals[row], p, _Replay(draws[row])
        )
        np.testing.assert_array_equal(got[row], want.counts)


def test_engine_raises_when_a_row_is_read_past_its_end():
    # no proposal mass and no offset: every draw is rejected and needs a
    # second uniform, 2n in all
    probs = np.array([[0.0, 0.5, 0.5], [0.2, 0.4, 0.4]])
    p = SimulationParams(delta=0.0)
    draws = np.full((2, 3), 0.5)
    with pytest.raises(RuntimeError, match="read more than 3 pre-drawn uniforms"):
        _simulate_counts(Strategy.ACCEPT_GT, probs, [0, 0], 2, p, draws)


def test_likely_reads_no_uniforms():
    probs = np.array([[0.2, 0.5, 0.3]])
    counts = _simulate_counts(
        Strategy.LIKELY, probs, [0], 4, SimulationParams(delta=0.1), np.empty((1, 0))
    )
    np.testing.assert_array_equal(counts, [[0, 4, 0]])


@pytest.mark.parametrize(
    "row, message",
    [
        ([0.5, np.nan, 0.5], "non-finite probability entry"),
        ([1.2, -0.2, 0.0], r"probability entry outside \[0, 1\]"),
        ([0.5, 0.6, 0.1], "probabilities sum to 1.2"),
    ],
)
def test_batched_validation_raises_the_first_bad_row_like_one_row(row, message):
    good = [0.2, 0.3, 0.5]
    with pytest.raises(DegenerateDistributionError, match=message):
        LabelDistribution(row)
    with pytest.raises(DegenerateDistributionError, match=message):
        _validated_rows(np.array([good, row, [1.5, -0.5, 0.0]]))


def test_batched_validation_stores_rows_as_one_row_does():
    rows = np.array(
        [
            [0.2, 0.3, 0.5],
            [0.2, 0.3, 0.5 + 5e-7],  # renormalized
            [0.2, 0.3, 0.5 + 5e-10],  # kept
            [1.0 + 1e-13, -1e-13, 0.0],  # clipped
        ]
    )
    got = _validated_rows(rows.copy())
    for row, want in zip(got, rows):
        assert np.array_equal(row, LabelDistribution(want).probs)


_MATRIX = TransitionMatrix(
    [
        [0.7, 0.2, 0.1, 0.0],
        [0.1, 0.6, 0.2, 0.1],
        [0.0, 0.3, 0.6, 0.1],
        [0.1, 0.1, 0.1, 0.7],
    ]
)


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(
        st.lists(st.integers(0, 6), min_size=4, max_size=4).filter(any),
        min_size=1,
        max_size=6,
    ),
    data=st.data(),
    use_bc=st.booleans(),
    use_cb=st.booleans(),
    cb_input=st.sampled_from(["corrected", "biased"]),
    delta=st.sampled_from([0.0, 0.1, 0.3]),
)
def test_array_repair_matches_one_row_repair(
    counts, data, use_bc, use_cb, cb_input, delta
):
    proposals = data.draw(
        st.lists(st.integers(0, 3), min_size=len(counts), max_size=len(counts))
    )
    corr = CorrectionParams(delta=delta, mu=0.75)
    flags = dict(use_bc=use_bc, use_cb=use_cb, cb_input=cb_input)
    got = repair_labels(np.array(counts), np.array(proposals), _MATRIX, corr, **flags)
    for row, c, proposal in zip(got, counts, proposals):
        tally = AnnotationSet.from_counts(c)
        want = repair_labels(tally, proposal, _MATRIX, corr, **flags)
        assert np.array_equal(row, want.probs)


def test_array_repair_checks_every_proposal():
    counts = np.ones((2, 4), dtype=int)
    with pytest.raises(IndexError, match="proposal 4 out of range for 4 classes"):
        repair_labels(counts, np.array([0, 4]), _MATRIX, CorrectionParams())


def _mixed_dataset(tmp_path, n_images=11):
    """K=9 soft labels with zero-mass classes; some proposals given."""
    rng = substream(5, "engine-dataset")
    images = []
    for i in range(n_images):
        w = rng.random(9)
        w[rng.random(9) < 0.4] = 0.0
        w[i % 9] += 0.5
        proposal = None if i % 3 == 0 else int(rng.random() * 9)
        gt = LabelDistribution(w / w.sum())
        images.append(ImageRecord(f"img_{i:04d}", gt, (), proposal))
    meta = DatasetMeta(tuple(f"c{i}" for i in range(9)), delta=0.12)
    path = tmp_path / "ds"
    save_dataset(Dataset(meta, tuple(images)), path)
    return path


def _mixed_matrix(tmp_path) -> str:
    """A K=9 confusion matrix file, so no run estimates one from the
    dataset's stream-drawn labels (a sample may miss a top class)."""
    rows = TransitionMatrix.from_rows(0.55 * np.eye(9) + 0.05)
    path = tmp_path / "matrix.json"
    save_transition_matrix(TransitionMatrixFile.from_matrix(rows), path)
    return str(path)


def _per_cell(cfg):
    """``simulate`` written as the per-(image, count) loop of one-row calls."""
    dataset = experiments.load_dataset(cfg.dataset)
    sim = experiments._effective_sim_params(cfg, dataset.meta)
    mu = dataset.meta.mu if cfg.mu is None else cfg.mu
    corr = CorrectionParams(cfg.corr_delta, cfg.corr_upper_bound, mu)
    matrix = experiments._resolve_transitions(
        cfg.transitions, cfg.seed, dataset.meta, dataset.probs
    )
    strategy = Strategy.parse(cfg.strategy)
    metrics = {
        "kl": kl_divergence,
        "l1": lambda g, e: float(np.abs(g.probs - e.probs).sum()),
    }
    results, values = [], {}
    for img in dataset.images:
        proposal = img.proposal
        if proposal is None:
            proposal = int(np.argmax(img.gt.probs))
        for n in cfg.annotations:
            params = replace(sim, repetitions=n)
            rng = substream(cfg.seed, "simulate", n, img.image_id)
            counts = simulate_strategy_set(strategy, img.gt, proposal, params, rng)
            raw = soft_gt_from_annotations(counts)
            repaired = repair_labels(
                counts,
                proposal,
                matrix,
                corr,
                use_bc=cfg.use_bc,
                use_cb=cfg.use_cb,
                cb_input=cfg.cb_input,
            )
            for variant, dist in (("raw", raw), ("repaired", repaired)):
                for metric in cfg.metrics:
                    value = metrics[metric](img.gt, dist)
                    results.append(
                        {
                            "image_id": img.image_id,
                            "annotations": n,
                            "variant": variant,
                            "metric": metric,
                            "value": value,
                        }
                    )
                    values.setdefault((n, variant, metric), []).append(value)
    aggregates = [
        {
            "annotations": n,
            "variant": variant,
            "metric": metric,
            "aggregate": mode,
            "value": aggregate_scores(vals, mode),
        }
        for (n, variant, metric), vals in values.items()
        for mode in ("median", "mean")
    ]
    return results, aggregates


@pytest.mark.parametrize(
    "strategy, flags",
    [
        ("ACCEPT_GT", {}),
        ("ACCEPT_GT", {"use_bc": False}),
        ("ACCEPT_GT", {"use_cb": False}),
        ("ACCEPT_GT", {"cb_input": "biased"}),
        ("TWO_ACCEPT_GT", {"cb_input": "biased", "use_cb": False}),
        ("TWO_ACCEPT_RANDOM", {}),
        ("ACCEPT_LIKELY", {"use_bc": False, "use_cb": False}),
        ("GT", {}),
        ("RANDOM", {}),
        ("LIKELY", {}),
    ],
)
def test_simulate_matches_the_per_cell_loop(tmp_path, monkeypatch, strategy, flags):
    monkeypatch.setattr(experiments, "_BLOCK_ROWS", 4)  # several blocks
    cfg = ExperimentConfig(
        seed=31,
        dataset=str(_mixed_dataset(tmp_path)),
        transitions=_mixed_matrix(tmp_path),
        strategy=strategy,
        annotations=(1, 3, 20),
        metrics=("kl", "l1"),
        sim_upper_bound=0.7,
        **flags,
    )
    report = run_simulation_experiment(cfg)
    results, aggregates = _per_cell(cfg)
    assert report.results == results
    assert report.aggregates == aggregates


def test_first_failing_cell_in_image_major_order_names_the_error(tmp_path, monkeypatch):
    # image 5 fails at the first count and image 2 at the other two; the
    # per-cell loop meets image 2 at count 3 first, with its message
    monkeypatch.setattr(experiments, "_BLOCK_ROWS", 4)
    path = _mixed_dataset(tmp_path)
    gts = [img.gt.probs for img in experiments.load_dataset(path).images]
    broken = {(5, 1): "negative", (2, 3): "sum", (2, 20): "negative"}
    real = experiments.simulate_strategy_set

    def corrupt(strategy, gt, proposal, p, rng):
        counts = real(strategy, gt, proposal, p, rng).counts.copy()
        image = next(i for i, g in enumerate(gts) if np.array_equal(g, gt.probs))
        kind = broken.get((image, p.repetitions))
        if kind == "negative":
            counts[0] = -1
        elif kind == "sum":
            counts[:] = 0
            counts[:2] = p.repetitions  # the raw row sums to 2
        return SimpleNamespace(counts=counts)

    monkeypatch.setattr(experiments, "simulate_strategy_set", corrupt)
    cfg = ExperimentConfig(
        seed=3,
        dataset=str(path),
        transitions=_mixed_matrix(tmp_path),
        annotations=(1, 3, 20),
    )
    message = r"^image 'img_0002': probabilities sum to 2.0, not normalizable$"
    with pytest.raises(RuntimeError, match=message):
        run_simulation_experiment(cfg)


def test_empty_dataset_gives_empty_tables(tmp_path):
    meta = DatasetMeta(("a", "b", "c"))
    path = tmp_path / "ds"
    save_dataset(Dataset(meta, ()), path)
    matrix = tmp_path / "matrix.json"
    identity = TransitionMatrixFile.from_matrix(TransitionMatrix.identity(3))
    save_transition_matrix(identity, matrix)
    cfg = ExperimentConfig(
        seed=1, dataset=str(path), transitions=str(matrix), metrics=("kl", "l1")
    )
    report = run_simulation_experiment(cfg)
    assert report.results == [] and report.aggregates == []
    assert len(report.budget) == len(cfg.speedups) * len(cfg.annotations)
    ids, rows = run_label_correction(str(path), transitions=str(matrix))
    assert ids == () and rows.shape == (0, 3)
