"""Seeded experiment orchestration and report emission.

Each experiment derives an independent random stream per (image,
annotation count) from the master seed, so results are reproducible and
independent of evaluation order.  Reports consist of long-format CSV
tables plus a JSON manifest that captures the full configuration; the
manifest alone suffices to re-run the experiment.
"""

from __future__ import annotations

import datetime
import os
from dataclasses import dataclass, field, replace
from operator import itemgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .. import __version__
from ..calibration import (
    CalibrationError,
    _fit_banded,
    _median_below,
    _two_proposal_rows,
)
from ..core import LabelDistribution, _validated_rows
from ..correction import (
    CorrectionParams,
    _check_cb_input,
    _estimate_transitions,
    repair_labels,
)
from ..metrics import (
    _METRIC_ROWS,
    NUM_BINS,
    BudgetParams,
    _bins,
    _compare,
    aggregate_scores,
    budget,
)
from ..rng import substream
from ..simulation import SimulationParams, Strategy, simulate_strategy_set
from .config import ConfigError, ExperimentConfig, _check_offset, _check_seed
from .formats import (
    FormatError,
    _dataset_meta,
    _dump_json,
    _join,
    _log_rows,
    _read_json,
    _soft_labels,
    _write_long_table,
    _write_table,
    load_dataset,
    load_transition_matrix,
)

__all__ = [
    "Report",
    "RESULTS_NAME",
    "AGGREGATES_NAME",
    "BUDGET_NAME",
    "MANIFEST_NAME",
    "run_simulation_experiment",
    "run_strategy_comparison",
    "run_calibration",
    "run_label_correction",
    "emit_report",
    "run_from_manifest",
]

RESULTS_NAME = "results.csv"
AGGREGATES_NAME = "aggregates.csv"
BUDGET_NAME = "budget.csv"
MANIFEST_NAME = "manifest.json"
_RESULTS_COLUMNS = ("image_id", "annotations", "variant", "metric", "value")

# images repaired and scored together; bounds the temporaries
_BLOCK_ROWS = 128


@dataclass(eq=False)
class Report:
    """In-memory experiment output: manifest plus long-format tables.

    The per-cell scores are kept as columns: ``scores[i, c]`` is image
    ``ids[i]``'s score under the ``(annotations, variant, metric)`` key
    ``keys[c]``.  :attr:`results` builds their long-format rows on demand.
    """

    manifest: dict
    aggregates: list = field(default_factory=list)
    budget: list = field(default_factory=list)
    ids: tuple = ()
    keys: tuple = ()
    scores: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    @property
    def results(self) -> list:
        """One dict per (image, key) cell, image by image, with a float value."""
        return [
            dict(zip(_RESULTS_COLUMNS, (image_id, *key, value)))
            for image_id, row in zip(self.ids, self.scores.tolist())
            for key, value in zip(self.keys, row)
        ]


def _effective_sim_params(cfg: ExperimentConfig, meta) -> SimulationParams:
    delta = meta.delta if cfg.sim_delta is None else cfg.sim_delta
    ub = meta.upper_bound if cfg.sim_upper_bound is None else cfg.sim_upper_bound
    # the config checks a pair it holds in full; here meta.json gives one side
    if not delta < ub and cfg.sim_delta is None:
        raise ConfigError(f"sim_upper_bound {ub} must be > meta.json's delta {delta}")
    if not delta < ub:
        raise ConfigError(f"sim_delta {delta} must be < meta.json's upper_bound {ub}")
    return SimulationParams(
        delta=delta, upper_bound=ub, reject_fallback=cfg.reject_fallback
    )


def _resolve_transitions(
    transitions: Optional[str], seed: Optional[int], meta, probs, **sizes
):
    """Load the named confusion matrix, or estimate one from a dataset's
    ``meta`` and soft labels ``probs[N, K]``.

    The estimate reads the seed's transition-estimation stream; ``sizes``
    go to :func:`~annobias.correction.estimate_transition_matrix`.  A seed
    out of range fails even when the matrix file leaves it unused.
    """
    _check_seed(seed)
    if transitions is not None:
        stored = load_transition_matrix(transitions)
        matrix, names = stored.matrix, meta.class_names
        if matrix.num_classes != meta.num_classes:
            raise FormatError(
                f"{transitions}: matrix has {matrix.num_classes} classes, "
                f"dataset has {meta.num_classes}"
            )
        if stored.class_names not in (None, names):
            raise FormatError(
                f"{transitions}: matrix classes {list(stored.class_names)} "
                f"differ from the dataset's {list(names)}"
            )
        return matrix
    if seed is None:
        raise ConfigError(
            "estimating a transition matrix is stochastic: provide a seed "
            "or a transitions file"
        )
    rng = substream(int(seed), "transition-estimation")
    return _estimate_transitions(probs, rng=rng, **sizes)


def _proposal_source(proposals) -> str:
    given = proposals >= 0
    if given.all():
        return "column"
    if not given.any():
        return "argmax_gt"
    return "mixed"


def _manifest(cfg: ExperimentConfig, command: str, **extra) -> dict:
    return {
        "tool": "annobias",
        "version": __version__,
        "command": command,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": cfg.seed,
        "config": cfg.to_mapping(),
        **extra,
    }


def run_simulation_experiment(cfg: ExperimentConfig) -> Report:
    """Simulate, repair, and score every image at every annotation count.

    Per image and count, one annotation tally is simulated under the
    configured strategy, repaired with the configured stages, and both the
    raw normalized tally and the repaired distribution are scored against
    the soft ground truth.  With an empty metric list the run is a no-op
    that produces only the manifest.  Of the dataset only ``meta.json`` and
    the soft labels are read (:func:`~annobias.harness.formats._soft_labels`).
    """
    meta, index, probs, proposals = _soft_labels(cfg.dataset)
    ids = tuple(index)
    sim = _effective_sim_params(cfg, meta)
    mu = meta.mu if cfg.mu is None else cfg.mu
    corr = CorrectionParams(
        delta=cfg.corr_delta, upper_bound=cfg.corr_upper_bound, mu=mu
    )
    strategy = Strategy.parse(cfg.strategy)

    manifest = _manifest(
        cfg,
        "simulate",
        dataset_images=len(ids),
        num_classes=meta.num_classes,
        proposal_source=_proposal_source(proposals),
        effective_sim_delta=sim.delta,
        effective_sim_upper_bound=sim.upper_bound,
        effective_mu=mu,
        transitions_source=cfg.transitions or "estimated" if cfg.metrics else "unused",
    )
    if not cfg.metrics:
        return Report(manifest)

    matrix = _resolve_transitions(cfg.transitions, cfg.seed, meta, probs)
    keys, scores = _score_cells(cfg, strategy, sim, corr, matrix, ids, probs, proposals)
    aggregates = [
        {
            "annotations": n,
            "variant": variant,
            "metric": metric,
            "aggregate": mode,
            "value": aggregate_scores(values, mode),
        }
        for (n, variant, metric), values in zip(keys, scores.T.tolist() if ids else ())
        for mode in ("median", "mean")
    ]
    budget_rows = [
        {
            "speedup": speedup,
            "annotations": n,
            "budget": budget(
                BudgetParams(cfg.initial_supervision, cfg.pct_annotated, n, speedup)
            ),
        }
        for speedup in cfg.speedups
        for n in cfg.annotations
    ]
    return Report(manifest, aggregates, budget_rows, ids, keys, scores)


def _score_cells(cfg, strategy, sim, corr, matrix, ids, probs, given) -> tuple:
    """Scores of every (image, count) cell: the ``(n, variant, metric)`` keys
    and ``float64[N, keys]`` scores, for the images ``ids`` with soft labels
    ``probs`` and proposals ``given``.

    Keys are in the order a row-by-row loop meets them; rows are in image
    order.  ``block`` draws each cell of a block of ``_BLOCK_ROWS``
    images from its own stream, keyed (seed, "simulate", n, image id), then
    validates, repairs and scores each count's tallies as arrays.  A failing
    cell raises ``RuntimeError`` naming the first failing image.
    """
    proposals = np.where(given < 0, probs.argmax(axis=1), given)
    reads = strategy is not Strategy.LIKELY  # LIKELY draws no uniform
    stages = dict(use_bc=cfg.use_bc, use_cb=cfg.use_cb, cb_input=cfg.cb_input)

    keys = tuple(
        (n, variant, metric)
        for n in cfg.annotations
        for variant in ("raw", "repaired")
        for metric in cfg.metrics
    )

    def block(i, j):
        gts = [LabelDistribution(p) for p in probs[i:j]]
        columns = []
        for n in cfg.annotations:
            params = replace(sim, repetitions=n)
            counts = np.array([
                simulate_strategy_set(
                    strategy, gt, proposals[row], params,
                    substream(cfg.seed, "simulate", n, ids[row]) if reads else None,
                ).counts
                for row, gt in enumerate(gts, i)
            ])
            raw = _validated_rows(counts / n)
            repaired = repair_labels(counts, proposals[i:j], matrix, corr, **stages)
            for dist in (raw, repaired):
                columns += [_METRIC_ROWS[m](probs[i:j], dist) for m in cfg.metrics]
        return np.column_stack(columns)

    scores = np.empty((len(ids), len(keys)))
    for lo, hi, values in _by_block(block, ids):
        scores[lo:hi] = values
    return keys, scores


def run_strategy_comparison(
    cfg: ExperimentConfig,
    log_path,
    repetitions: int = 3,
) -> list:
    """Rank all seven strategies by closeness to the logged behavior.

    Returns :class:`~annobias.metrics.StrategyComparison` rows sorted by
    mean normalized distance, best first.  Of the dataset only ``meta.json``
    and the soft labels are read.
    """
    meta, index, probs, _ = _soft_labels(cfg.dataset)
    ids, proposals, annotated = _log_rows(log_path, meta)
    if not ids:
        raise FormatError(f"{log_path}: log contains no entries")
    # _soft_labels checked the soft labels, _log_rows each class's range
    rows = _join(ids, index, log_path)
    group = (np.arange(len(ids)), probs[rows], proposals, annotated)
    sim = _effective_sim_params(cfg, meta)
    ranked = _compare(ids, [group], tuple(Strategy), sim, repetitions, cfg.seed)
    return sorted(ranked, key=lambda r: (r.mean, r.strategy.name))


def run_calibration(
    cfg: ExperimentConfig,
    log_path,
    method: str,
    *,
    band: tuple = (0.2, 0.4),
    n_target: int = 20,
    rescale: float = 1.0,
    threshold: float = 0.8,
) -> dict:
    """Estimate the acceptance offset from a logged annotation campaign.

    ``method`` is ``"banded"`` (needs the dataset's soft labels, and reads
    ``annotations.csv`` only when there is no ``gt.csv``) or
    ``"two-proposal"`` (needs each image annotated under two proposals, and
    of the dataset only its ``meta.json``).  Returns a report dict with the
    estimate and the counts that went into it: log rows (``n_records``) for
    banded, images (``n_images``) for two-proposal.
    """
    if method == "banded":
        meta, index, probs, _ = _soft_labels(cfg.dataset)
    elif method == "two-proposal":
        meta = _dataset_meta(Path(cfg.dataset))
    else:
        raise ConfigError(f"unknown calibration method {method!r}")
    ids, proposals, annotated = _log_rows(log_path, meta)
    if not ids:
        raise CalibrationError("insufficient calibration data: empty log")
    sim = _effective_sim_params(cfg, meta)

    if method == "banded":
        rows = _join(ids, index, log_path)
        masses = probs[rows, proposals]
        occupancy = np.bincount(_bins(masses), minlength=NUM_BINS).tolist()
        occupancy_by_bin = {f"bin_{b}": n for b, n in enumerate(occupancy)}
        args = band, n_target, rescale, sim.upper_bound
        try:
            estimate, inside, images = _fit_banded(
                masses, proposals == annotated, rows, *args
            )
        except CalibrationError as e:
            raise CalibrationError(
                f"{e}; proposal-mass bin occupancy: {occupancy_by_bin}"
            ) from e
        return {
            "method": "banded",
            "estimate": estimate,
            "band": [float(band[0]), float(band[1])],
            "rescale": rescale,
            "aggregate": "mean",
            "upper_bound": sim.upper_bound,
            "n_records": len(ids),
            "n_in_band_records": inside.size,
            "n_in_band_images": len(images),
            "occupancy": occupancy_by_bin,
        }
    try:
        raw = _two_proposal_rows(ids, proposals, annotated, sim.upper_bound).tolist()
    except CalibrationError as e:
        raise FormatError(f"{log_path}: {e}") from e
    estimate, survivors = _median_below(raw, threshold)
    return {
        "method": "two-proposal",
        "estimate": estimate,
        "threshold": threshold,
        "upper_bound": sim.upper_bound,
        "n_images": len(raw),
        "n_finite_candidates": int(np.isfinite(raw).sum()),
        "n_survivors": len(survivors),
        "candidate_min": float(min(survivors)),
        "candidate_max": float(max(survivors)),
    }


def run_label_correction(
    dataset_path,
    transitions: Optional[str] = None,
    seed: Optional[int] = None,
    *,
    corr_delta: float = 0.1,
    corr_upper_bound: float = 0.99,
    mu: Optional[float] = None,
    use_bc: bool = True,
    use_cb: bool = True,
    cb_input: str = "corrected",
) -> tuple:
    """Repair a dataset's raw annotation tallies.

    Every image needs raw annotations and an explicit proposal column —
    correction inverts a proposal-guided process, so guessing the proposal
    would silently change the question being answered.  Returns
    ``(ids, rows)``: the image ids in dataset order and their repaired
    distributions ``float64[N, K]``, as :func:`repair_labels` gives them.
    ``transitions`` names a matrix file; ``None`` estimates one from the
    dataset's soft labels, which requires ``seed``.  The offsets and
    ``cb_input`` are checked before any file is read.
    """
    _check_offset("corr", corr_delta, corr_upper_bound)
    _check_cb_input(cb_input)
    dataset = load_dataset(dataset_path)
    ids, counts, proposals = dataset.ids, dataset.counts, dataset.proposals
    missing_ann = np.flatnonzero(counts.sum(axis=1) == 0)
    if missing_ann.size:
        raise FormatError(
            f"image {ids[missing_ann[0]]!r} has no raw annotations to correct"
        )
    missing_prop = np.flatnonzero(proposals < 0)
    if missing_prop.size:
        raise FormatError(
            f"image {ids[missing_prop[0]]!r} has no proposal; correction requires "
            f"an explicit proposal column"
        )
    matrix = _resolve_transitions(transitions, seed, dataset.meta, dataset.probs)
    corr = CorrectionParams(
        delta=corr_delta,
        upper_bound=corr_upper_bound,
        mu=dataset.meta.mu if mu is None else mu,
    )
    stages = dict(use_bc=use_bc, use_cb=use_cb, cb_input=cb_input)

    def rows(i, j):
        return repair_labels(counts[i:j], proposals[i:j], matrix, corr, **stages)

    repaired = np.empty(counts.shape)
    for lo, hi, block in _by_block(rows, ids):
        repaired[lo:hi] = block
    return ids, repaired


def _by_block(compute, ids):
    """Yield ``(lo, hi, compute(lo, hi))`` per block of ``_BLOCK_ROWS`` images.

    If a block fails, each of its rows is run on its own, and the first row
    that fails raises ``RuntimeError`` naming its image id, as a row-by-row
    loop would have."""
    for lo in range(0, len(ids), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(ids))
        try:
            result = compute(lo, hi)
        except Exception as block_error:
            for row in range(lo, hi):
                try:
                    compute(row, row + 1)
                except Exception as error:
                    raise RuntimeError(f"image {ids[row]!r}: {error}") from error
            raise block_error
        yield lo, hi, result


def emit_report(report: Report, out_dir) -> list:
    """Write the report's tables and manifest; returns the paths written.

    Tables with no rows are omitted entirely; the manifest is always
    written and is the only file carrying a timestamp.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / MANIFEST_NAME]
    _dump_json(report.manifest, written[0])
    if report.scores.size:
        path = out / RESULTS_NAME
        _write_long_table(path, _RESULTS_COLUMNS, report.ids, report.keys, report.scores)
        written.append(path)
    tables = {AGGREGATES_NAME: report.aggregates, BUDGET_NAME: report.budget}
    for name, rows in tables.items():
        if rows:
            columns = tuple(rows[0])  # each row lists its table's columns in order
            _write_table(out / name, columns, map(itemgetter(*columns), rows))
            written.append(out / name)
    return written


def run_from_manifest(manifest_path) -> Report:
    """Re-run the experiment a manifest describes.

    Relative dataset/transitions paths are resolved against the manifest's
    directory, so a report directory can be re-run from anywhere.
    """
    p = Path(manifest_path)
    try:
        manifest = _read_json(p)
    except FormatError as e:
        raise ConfigError(str(e)) from e
    data = manifest.get("config")
    if not isinstance(data, dict):
        raise ConfigError(f"{p}: not a run manifest (missing 'config')")
    for key in ("dataset", "transitions"):
        value = data.get(key)
        if isinstance(value, str) and value and not Path(value).is_absolute():
            candidate = p.parent / value
            if os.path.exists(candidate):
                data[key] = str(candidate)
    cfg = ExperimentConfig.from_mapping(data, source=str(p))
    return run_simulation_experiment(cfg)
