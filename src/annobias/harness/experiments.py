"""Seeded experiment orchestration and report emission.

Each experiment derives an independent random stream per (image,
annotation count) from the master seed, so results are reproducible and
independent of evaluation order.  Reports consist of long-format CSV
tables plus a JSON manifest that captures the full configuration; the
manifest alone suffices to re-run the experiment.
"""

from __future__ import annotations

import datetime
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .. import __version__
from ..calibration import (
    CalibrationError,
    _in_band,
    _median_below,
    estimate_delta_banded,
    two_proposal_candidates,
)
from ..core import argmax_class, soft_gt_from_annotations
from ..correction import CorrectionParams, estimate_transition_matrix, repair_labels
from ..metrics import (
    BudgetParams,
    aggregate_scores,
    bin_index,
    budget,
    compare_strategies,
    kl_divergence,
)
from ..rng import substream
from ..simulation import SimulationParams, Strategy, simulate_strategy_set
from .config import ConfigError, ExperimentConfig
from .formats import (
    FormatError,
    _fmt,
    acceptance_records_from_log,
    load_acceptance_log,
    load_dataset,
    load_transition_matrix,
    two_proposal_records_from_log,
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


@dataclass
class Report:
    """In-memory experiment output: manifest plus long-format tables."""

    manifest: dict
    results: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)
    budget: list = field(default_factory=list)


def _l1_distance(gt, est) -> float:
    return float(np.abs(gt.probs - est.probs).sum())


_METRIC_FUNCS = {
    "kl": kl_divergence,
    "l1": _l1_distance,
}


def _effective_sim_params(cfg: ExperimentConfig, meta) -> SimulationParams:
    delta = meta.delta if cfg.sim_delta is None else cfg.sim_delta
    ub = meta.upper_bound if cfg.sim_upper_bound is None else cfg.sim_upper_bound
    return SimulationParams(
        delta=delta, upper_bound=ub, reject_fallback=cfg.reject_fallback
    )


def _resolve_transitions(transitions: Optional[str], seed: Optional[int], dataset):
    """Load the named confusion matrix, or estimate one from the dataset."""
    if transitions is not None:
        matrix = load_transition_matrix(transitions).matrix
        if matrix.num_classes != dataset.num_classes:
            raise FormatError(
                f"{transitions}: matrix has {matrix.num_classes} classes, "
                f"dataset has {dataset.num_classes}"
            )
        return matrix
    if seed is None:
        raise ConfigError(
            "estimating a transition matrix is stochastic: provide a seed "
            "or a transitions file"
        )
    return estimate_transition_matrix(
        [img.gt for img in dataset.images],
        rng=substream(int(seed), "transition-estimation"),
    )


def _proposal_source(dataset) -> str:
    given = [img.proposal is not None for img in dataset.images]
    if all(given):
        return "column"
    if not any(given):
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
    that produces only the manifest.
    """
    dataset = load_dataset(cfg.dataset)
    meta = dataset.meta
    sim = _effective_sim_params(cfg, meta)
    mu = meta.mu if cfg.mu is None else cfg.mu
    corr = CorrectionParams(
        delta=cfg.corr_delta, upper_bound=cfg.corr_upper_bound, mu=mu
    )
    strategy = Strategy.parse(cfg.strategy)

    manifest_extra = {
        "dataset_images": len(dataset.images),
        "num_classes": dataset.num_classes,
        "proposal_source": _proposal_source(dataset),
        "effective_sim_delta": sim.delta,
        "effective_sim_upper_bound": sim.upper_bound,
        "effective_mu": mu,
    }

    if not cfg.metrics:
        manifest = _manifest(
            cfg, "simulate", transitions_source="unused", **manifest_extra
        )
        return Report(manifest)

    matrix = _resolve_transitions(cfg.transitions, cfg.seed, dataset)
    manifest = _manifest(
        cfg,
        "simulate",
        transitions_source=cfg.transitions or "estimated",
        **manifest_extra,
    )

    results = []
    values = {}  # (n, variant, metric) -> list of floats, insertion-ordered
    params = {n: replace(sim, repetitions=n) for n in cfg.annotations}
    for img in dataset.images:
        proposal = img.proposal if img.proposal is not None else argmax_class(img.gt)
        for n in cfg.annotations:
            rng = substream(cfg.seed, "simulate", n, img.image_id)
            try:
                counts = simulate_strategy_set(
                    strategy, img.gt, proposal, params[n], rng
                )
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
            except Exception as e:
                raise RuntimeError(f"image {img.image_id!r}: {e}") from e
            for variant, dist in (("raw", raw), ("repaired", repaired)):
                for metric in cfg.metrics:
                    value = _METRIC_FUNCS[metric](img.gt, dist)
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

    aggregates = []
    for (n, variant, metric), vals in values.items():
        for mode in ("median", "mean"):
            aggregates.append(
                {
                    "annotations": n,
                    "variant": variant,
                    "metric": metric,
                    "aggregate": mode,
                    "value": aggregate_scores(vals, mode),
                }
            )

    budget_rows = []
    for speedup in cfg.speedups:
        for n in cfg.annotations:
            cost = budget(
                BudgetParams(
                    initial_supervision=cfg.initial_supervision,
                    pct_annotated=cfg.pct_annotated,
                    annotations_per_image=n,
                    speedup=speedup,
                )
            )
            budget_rows.append(
                {"speedup": speedup, "annotations": n, "budget": cost}
            )

    return Report(manifest, results, aggregates, budget_rows)


def run_strategy_comparison(
    cfg: ExperimentConfig,
    log_path,
    repetitions: int = 3,
) -> list:
    """Rank all seven strategies by closeness to the logged behavior.

    Returns :class:`~annobias.metrics.StrategyComparison` rows sorted by
    mean normalized distance, best first.
    """
    dataset = load_dataset(cfg.dataset)
    entries = load_acceptance_log(log_path, dataset.meta)
    records = acceptance_records_from_log(entries, dataset.gt_by_id())
    if not records:
        raise FormatError(f"{log_path}: log contains no entries")
    sim = _effective_sim_params(cfg, dataset.meta)
    rows = [
        compare_strategies(records, strategy, sim, repetitions, seed=cfg.seed)
        for strategy in Strategy
    ]
    return sorted(rows, key=lambda r: (r.mean, r.strategy.name))


def run_calibration(
    cfg: ExperimentConfig,
    log_path,
    method: str,
    *,
    band: tuple = (0.2, 0.4),
    n_target: int = 20,
    rescale: float = 1.0,
    aggregate: str = "mean",
    threshold: float = 0.8,
) -> dict:
    """Estimate the acceptance offset from a logged annotation campaign.

    ``method`` is ``"banded"`` (needs ground truth from the dataset) or
    ``"two-proposal"`` (needs each image annotated under two proposals).
    Returns a report dict with the estimate and the record counts that
    went into it.
    """
    dataset = load_dataset(cfg.dataset)
    entries = load_acceptance_log(log_path, dataset.meta)
    if not entries:
        raise CalibrationError("insufficient calibration data: empty log")
    sim = _effective_sim_params(cfg, dataset.meta)

    if method == "banded":
        records = acceptance_records_from_log(entries, dataset.gt_by_id())
        occupancy = Counter(bin_index(r.gt[r.proposal]) for r in records)
        occupancy_by_bin = {f"bin_{b}": occupancy.get(b, 0) for b in range(6)}
        try:
            estimate = estimate_delta_banded(
                records,
                band=band,
                n_target=n_target,
                rescale=rescale,
                aggregate=aggregate,
                upper_bound=sim.upper_bound,
            )
        except CalibrationError as e:
            raise CalibrationError(
                f"{e}; proposal-mass bin occupancy: {occupancy_by_bin}"
            ) from e
        lo, hi = float(band[0]), float(band[1])
        in_band = _in_band(records, lo, hi)
        return {
            "method": "banded",
            "estimate": estimate,
            "band": [lo, hi],
            "rescale": rescale,
            "aggregate": aggregate,
            "upper_bound": sim.upper_bound,
            "n_records": len(records),
            "n_in_band_records": len(in_band),
            "n_in_band_images": len({r.image_id for r in in_band}),
            "occupancy": occupancy_by_bin,
        }
    if method == "two-proposal":
        records = two_proposal_records_from_log(entries, dataset.num_classes)
        raw = two_proposal_candidates(records, upper_bound=sim.upper_bound)
        estimate, survivors = _median_below(raw, threshold)
        return {
            "method": "two-proposal",
            "estimate": estimate,
            "threshold": threshold,
            "upper_bound": sim.upper_bound,
            "n_records": len(records),
            "n_finite_candidates": int(np.isfinite(raw).sum()),
            "n_survivors": len(survivors),
            "candidate_min": float(min(survivors)),
            "candidate_max": float(max(survivors)),
        }
    raise ConfigError(f"unknown calibration method {method!r}")


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
) -> list:
    """Repair a dataset's raw annotation tallies.

    Every image needs raw annotations and an explicit proposal column —
    correction inverts a proposal-guided process, so guessing the proposal
    would silently change the question being answered.  Returns
    ``(image_id, repaired LabelDistribution)`` pairs in dataset order.
    ``transitions`` names a matrix file; ``None`` estimates one from the
    dataset's soft labels, which requires ``seed``.
    """
    dataset = load_dataset(dataset_path)
    missing_ann = [i.image_id for i in dataset.images if i.annotations is None]
    if missing_ann:
        raise FormatError(
            f"image {missing_ann[0]!r} has no raw annotations to correct"
        )
    missing_prop = [i.image_id for i in dataset.images if i.proposal is None]
    if missing_prop:
        raise FormatError(
            f"image {missing_prop[0]!r} has no proposal; correction requires "
            f"an explicit proposal column"
        )
    matrix = _resolve_transitions(transitions, seed, dataset)
    corr = CorrectionParams(
        delta=corr_delta,
        upper_bound=corr_upper_bound,
        mu=dataset.meta.mu if mu is None else mu,
    )
    out = []
    for img in dataset.images:
        try:
            repaired = repair_labels(
                img.annotations,
                img.proposal,
                matrix,
                corr,
                use_bc=use_bc,
                use_cb=use_cb,
                cb_input=cb_input,
            )
        except Exception as e:
            raise RuntimeError(f"image {img.image_id!r}: {e}") from e
        out.append((img.image_id, repaired))
    return out


def _write_csv(path: Path, rows: Sequence[dict], columns: Sequence[str]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row[col]
            cells.append(_fmt(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_report(report: Report, out_dir) -> list:
    """Write the report's tables and manifest; returns the paths written.

    Tables with no rows are omitted entirely; the manifest is always
    written and is the only file carrying a timestamp.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    manifest_path = out / MANIFEST_NAME
    manifest_path.write_text(
        json.dumps(report.manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    written.append(manifest_path)

    if report.results:
        path = out / RESULTS_NAME
        _write_csv(
            path,
            report.results,
            ["image_id", "annotations", "variant", "metric", "value"],
        )
        written.append(path)
    if report.aggregates:
        path = out / AGGREGATES_NAME
        _write_csv(
            path,
            report.aggregates,
            ["annotations", "variant", "metric", "aggregate", "value"],
        )
        written.append(path)
    if report.budget:
        path = out / BUDGET_NAME
        _write_csv(path, report.budget, ["speedup", "annotations", "budget"])
        written.append(path)
    return written


def run_from_manifest(manifest_path) -> Report:
    """Re-run the experiment a manifest describes.

    Relative dataset/transitions paths are resolved against the manifest's
    directory, so a report directory can be re-run from anywhere.
    """
    p = Path(manifest_path)
    try:
        with open(p, encoding="utf-8") as f:
            manifest = json.load(f)
    except OSError as e:
        raise ConfigError(f"{p}: cannot read: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}:{e.lineno}: invalid JSON: {e.msg}") from e
    if not isinstance(manifest, dict) or "config" not in manifest:
        raise ConfigError(f"{p}: not a run manifest (missing 'config')")
    data = dict(manifest["config"])
    for key in ("dataset", "transitions"):
        value = data.get(key)
        if value and not Path(value).is_absolute():
            candidate = p.parent / value
            if candidate.exists():
                data[key] = str(candidate)
    cfg = ExperimentConfig.from_mapping(data, source=str(p))
    return run_simulation_experiment(cfg)
