"""Command-line interface.

Subcommands::

    simulate              simulate, repair, and score annotations end to end
    correct               repair a dataset's raw annotation tallies
    calibrate             estimate the acceptance offset from a log
    estimate-transitions  estimate a class-confusion matrix from soft labels
    compare-strategies    rank annotator models against a logged campaign
    report                re-run an experiment from its manifest

Stochastic subcommands require ``--seed``; given the same seed they
reproduce their outputs byte for byte.  Exit code 0 on success, 2 on any
diagnosed error (message on stderr).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .. import __version__
from ..calibration import STUDY_RESCALE
from ..correction import _CB_INPUTS
from ..simulation import _REJECT_FALLBACKS
from .config import ConfigError, ExperimentConfig
from .experiments import (
    _resolve_transitions,
    emit_report,
    run_calibration,
    run_from_manifest,
    run_label_correction,
    run_simulation_experiment,
    run_strategy_comparison,
)
from .formats import (
    TransitionMatrixFile,
    _dump_json,
    _float_texts,
    _gt_header,
    _read_json,
    _soft_labels,
    _write_table,
    save_transition_matrix,
)

__all__ = ["main", "build_parser"]


def _int_list(text: str) -> list:
    return [int(part) for part in str(text).split(",") if part.strip()]


def _float_list(text: str) -> list:
    return [float(part) for part in str(text).split(",") if part.strip()]


def _str_list(text: str) -> list:
    return [part.strip() for part in str(text).split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annobias",
        description=(
            "Simulate proposal-guided annotation, repair the resulting "
            "label bias, and evaluate label quality."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="simulate, repair, and score annotations end to end"
    )
    sim.add_argument("--config", help="JSON config file; flags override it")
    sim.add_argument("--dataset", help="dataset directory")
    sim.add_argument("--seed", type=int, help="master seed (required)")
    sim.add_argument("--strategy", help="annotator model (default ACCEPT_GT)")
    sim.add_argument(
        "--annotations",
        type=_int_list,
        help="comma-separated annotation counts, e.g. 5,10,20,50",
    )
    sim.add_argument("--sim-delta", type=float, help="simulation offset")
    sim.add_argument(
        "--sim-upper-bound", type=float, help="simulation acceptance cap"
    )
    sim.add_argument("--mu", type=float, help="blend weight")
    sim.add_argument("--corr-delta", type=float, help="correction offset")
    sim.add_argument(
        "--corr-upper-bound", type=float, help="correction acceptance cap"
    )
    sim.add_argument(
        "--no-bc",
        dest="use_bc",
        action="store_const",
        const=False,
        default=None,
        help="disable bias correction",
    )
    sim.add_argument(
        "--no-cb",
        dest="use_cb",
        action="store_const",
        const=False,
        default=None,
        help="disable class blending",
    )
    sim.add_argument(
        "--cb-input", choices=_CB_INPUTS, help="what the blending stage sees"
    )
    sim.add_argument(
        "--reject-fallback",
        choices=_REJECT_FALLBACKS,
        help="rejected-proposal fallback when no ground-truth mass remains",
    )
    sim.add_argument("--transitions", help="confusion-matrix JSON file")
    sim.add_argument(
        "--metrics", type=_str_list, help="comma-separated metrics (kl,l1)"
    )
    sim.add_argument(
        "--speedups", type=_float_list, help="comma-separated speedups"
    )
    sim.add_argument("--initial-supervision", type=float)
    sim.add_argument("--pct-annotated", type=float)
    sim.add_argument("--out", required=True, help="output directory")

    cor = sub.add_parser("correct", help="repair raw annotation tallies")
    cor.add_argument("--dataset", required=True, help="dataset directory")
    cor.add_argument("--transitions", help="confusion-matrix JSON file")
    cor.add_argument(
        "--seed",
        type=int,
        help="seed for transition estimation (when no matrix file is given)",
    )
    cor.add_argument("--corr-delta", type=float, default=0.1)
    cor.add_argument("--corr-upper-bound", type=float, default=0.99)
    cor.add_argument("--mu", type=float, help="blend weight (default: metadata)")
    cor.add_argument(
        "--no-bc", dest="use_bc", action="store_false", help="disable bias correction"
    )
    cor.add_argument(
        "--no-cb", dest="use_cb", action="store_false", help="disable class blending"
    )
    cor.add_argument("--cb-input", choices=_CB_INPUTS, default="corrected")
    cor.add_argument("--out", required=True, help="output CSV file")

    cal = sub.add_parser("calibrate", help="estimate the acceptance offset")
    cal.add_argument("--dataset", required=True, help="dataset directory")
    cal.add_argument("--log", required=True, help="acceptance log CSV")
    cal.add_argument(
        "--method", choices=["banded", "two-proposal"], default="banded"
    )
    cal.add_argument(
        "--band",
        type=_float_list,
        default=[0.2, 0.4],
        help="proposal-mass band lo,hi (banded method)",
    )
    cal.add_argument("--n-target", type=int, default=20)
    cal.add_argument(
        "--rescale",
        type=float,
        default=None,
        help=f"estimate multiplier (default 1.0, or {STUDY_RESCALE} "
        f"with --study-data)",
    )
    cal.add_argument(
        "--study-data",
        action="store_true",
        help="records come from annotators who knew the ground truth",
    )
    cal.add_argument("--aggregate", choices=["mean", "median"], default="mean")
    cal.add_argument(
        "--threshold", type=float, default=0.8, help="two-proposal cutoff"
    )
    cal.add_argument("--out", help="optional JSON report file")

    est = sub.add_parser(
        "estimate-transitions", help="estimate a class-confusion matrix"
    )
    est.add_argument("--dataset", required=True, help="dataset directory")
    est.add_argument("--seed", type=int, required=True)
    est.add_argument("--n-images", type=int, default=100)
    est.add_argument("--n-annos", type=int, default=10)
    est.add_argument("--out", required=True, help="output JSON file")

    cmp_ = sub.add_parser(
        "compare-strategies", help="rank annotator models against a log"
    )
    cmp_.add_argument("--dataset", required=True, help="dataset directory")
    cmp_.add_argument("--log", required=True, help="acceptance log CSV")
    cmp_.add_argument("--seed", type=int, required=True)
    cmp_.add_argument("--sim-delta", type=float)
    cmp_.add_argument("--sim-upper-bound", type=float)
    cmp_.add_argument("--repetitions", type=int, default=3)
    cmp_.add_argument("--out", help="optional CSV file")

    rep = sub.add_parser("report", help="re-run an experiment from a manifest")
    rep.add_argument("--from-manifest", required=True, dest="manifest")
    rep.add_argument("--out", required=True, help="output directory")

    return parser


def _config_flags(args) -> dict:
    """The :class:`ExperimentConfig` fields given as flags (flag dests match)."""
    overrides = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    return {key: value for key, value in overrides.items() if value is not None}


def _cmd_simulate(args) -> int:
    # the flags win over the file's keys, and the merged mapping is checked once
    data = _read_json(args.config) if args.config else {}
    data.update(_config_flags(args))
    if data.get("seed") is None:
        raise ConfigError("a seed is required (--seed or config file)")
    if not data.get("dataset"):
        raise ConfigError("a dataset is required (--dataset or config file)")
    cfg = ExperimentConfig.from_mapping(data, source=args.config or "<command line>")
    report = run_simulation_experiment(cfg)
    written = emit_report(report, args.out)
    for path in written:
        print(path)
    return 0


def _cmd_correct(args) -> int:
    keys = ("corr_delta", "corr_upper_bound", "mu", "use_bc", "use_cb", "cb_input")
    ids, repaired = run_label_correction(
        args.dataset, args.transitions, args.seed, **{k: vars(args)[k] for k in keys}
    )
    rows = ([i, *texts] for i, texts in zip(ids, _float_texts(repaired)))
    _write_table(args.out, _gt_header(repaired.shape[1]), rows)
    print(args.out)
    return 0


def _cmd_calibrate(args) -> int:
    if len(args.band) != 2:
        raise ConfigError("--band needs exactly two values: lo,hi")
    rescale = args.rescale
    if rescale is None:
        rescale = STUDY_RESCALE if args.study_data else 1.0
    cfg = ExperimentConfig(seed=0, dataset=args.dataset)
    result = run_calibration(
        cfg,
        args.log,
        args.method,
        band=(args.band[0], args.band[1]),
        n_target=args.n_target,
        rescale=rescale,
        aggregate=args.aggregate,
        threshold=args.threshold,
    )
    print(f"method: {result['method']}")
    print(f"estimate: {result['estimate']}")
    print(f"records: {result['n_records']}")
    if args.out:
        _dump_json(result, args.out)
        print(args.out)
    return 0


def _cmd_estimate_transitions(args) -> int:
    meta, _, probs, _ = _soft_labels(args.dataset)
    matrix = _resolve_transitions(
        None, args.seed, meta, probs, n_images=args.n_images, n_annos=args.n_annos
    )
    tm_file = TransitionMatrixFile.from_matrix(
        matrix,
        class_names=meta.class_names,
        metadata={"n_images": args.n_images, "n_annos": args.n_annos, "seed": args.seed},
    )
    save_transition_matrix(tm_file, args.out)
    print(args.out)
    return 0


def _cmd_compare_strategies(args) -> int:
    cfg = ExperimentConfig.from_mapping(_config_flags(args), source="<command line>")
    rows = run_strategy_comparison(cfg, args.log, repetitions=args.repetitions)
    print(f"{'strategy':<18} {'mean_sod':>10} {'std_sod':>10}")
    for row in rows:
        print(f"{row.strategy.name:<18} {row.mean:>10.4f} {row.std:>10.4f}")
    if args.out:
        table = [
            [r.strategy.name, r.mean, r.std, ";".join(map(repr, r.sods))] for r in rows
        ]
        _write_table(args.out, ["strategy", "mean_sod", "std_sod", "sods"], table)
        print(args.out)
    return 0


def _cmd_report(args) -> int:
    report = run_from_manifest(args.manifest)
    written = emit_report(report, args.out)
    for path in written:
        print(path)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "correct": _cmd_correct,
    "calibrate": _cmd_calibrate,
    "estimate-transitions": _cmd_estimate_transitions,
    "compare-strategies": _cmd_compare_strategies,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
