"""Benchmark of the ``annobias`` command line.

Usage (from the repository root)::

    python3 bench/run.py --workload simulate-k10 --seed 1 --seconds 30 --trace 0

The run generates the workload's inputs from ``--seed`` (``gen.py``, which
does not use the package), then runs the workload's CLI commands in a
closed loop, one process and one command at a time, through
``annobias.harness.cli.main`` imported from ``src/``, for ``--seconds``
seconds (``worker.py``).  Every iteration's outputs are checked against
the acceptance law (``checks.py``).  The measuring time is split between
two processes with different hash seeds, and every iteration of both must
write the same bytes as the first, which guards run-to-run determinism.

With ``--trace 0`` the last line is a JSON object with the end-to-end
metrics; with ``--trace 1`` every second iteration is traced
(``spans.py``) and the line holds the per-layer metrics instead.  The
lines before it give the same numbers for people, the environment and the
SHA-256 of every input file; the full record of the run is written to
``.bench_results/``.  The exit code is 0 when the run completed, failed
operations included; it is 2, with no result line, when the checkout has
no ``src/annobias`` to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

SETUP_SAMPLES = 7
SETUP_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "from annobias.harness.cli import build_parser\n"
    "build_parser()\n"
    "print(repr(time.perf_counter() - t))\n"
)
# Two workers plus set-up must end within the 180 s a run may take.
WORKER_TIMEOUT_S = 75
HASH_SEEDS = (1, 2)


@dataclass(frozen=True)
class Workload:
    """Inputs, commands, work units and checks of one workload."""

    name: str
    images: int
    make: Callable  # (work dir, seed, images) -> {input file: sha256}
    steps: Callable  # (work dir, seed) -> CLI argument lists of one iteration
    units: Callable  # images -> work units per iteration
    unit: str  # what one work unit is
    check: Callable  # (iteration dir, images) -> problems
    outputs: tuple  # files compared byte for byte


def _simulate_steps(work: Path, seed: int) -> list:
    return [[
        "simulate", "--dataset", str(work / "dataset"), "--seed", str(seed),
        "--strategy", "ACCEPT_GT", "--annotations", "5,10,20,50", "--out", "{out}",
    ]]


def _compare_steps(work: Path, seed: int) -> list:
    dataset = work / "dataset"
    return [[
        "compare-strategies", "--dataset", str(dataset),
        "--log", str(dataset / "acceptance_log.csv"), "--seed", str(seed),
        "--repetitions", "3", "--out", "{out}/compare.csv",
    ]]


def _ingest_steps(work: Path, seed: int) -> list:
    dataset = work / "dataset"
    return [
        [
            "correct", "--dataset", str(dataset),
            "--transitions", str(work / "transitions.json"),
            "--out", "{out}/repaired.csv",
        ],
        [
            "calibrate", "--dataset", str(dataset),
            "--log", str(dataset / "acceptance_log.csv"),
            "--method", "banded", "--out", "{out}/calibration.json",
        ],
    ]


def _ingest_check(out: Path, images: int) -> list:
    image_ids = [f"img{i:06d}" for i in range(images)]
    return checks.check_ingest(out, image_ids, images * gen.INGEST_PER_IMAGE)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-k10", 500, gen.make_simulate, _simulate_steps,
            lambda n: n * len(checks.SIMULATE_COUNTS), "(image, count) cell",
            checks.check_simulate,
            ("results.csv", "aggregates.csv", "budget.csv"),
        ),
        Workload(
            "compare-k10", 600, gen.make_compare, _compare_steps,
            lambda n: n * gen.COMPARE_PER_IMAGE * checks.STRATEGIES * 3, "simulated draw",
            lambda out, n: checks.check_compare(out),
            ("compare.csv",),
        ),
        Workload(
            "ingest-k100", 1000, gen.make_ingest, _ingest_steps,
            lambda n: 2 * n * gen.INGEST_PER_IMAGE, "annotation or log row",
            _ingest_check,
            ("repaired.csv", "calibration.json"),
        ),
    )
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _spawn_worker(spec: dict, hash_seed: int) -> dict:
    env = _env()
    env["PYTHONHASHSEED"] = str(hash_seed)
    path = Path(spec["result"])
    spec_path = path.with_suffix(".spec.json")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
        env=env, check=True, timeout=WORKER_TIMEOUT_S,
    )
    return json.loads(path.read_text(encoding="utf-8"))


def _setup_seconds() -> list:
    """Import-and-parser time of fresh interpreters, measured inside each."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            env=_env(), check=True, timeout=60, capture_output=True, text=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _digests(out: Path, names) -> dict:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in names
        if (out / name).is_file()
    }


def _check(workload, out: Path, images: int) -> list:
    try:
        return workload.check(out, images)
    except (OSError, ValueError, KeyError, IndexError) as e:
        return [f"unreadable output: {e!r}"]


def _environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
    )
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def _layer_metrics(summary: dict) -> dict:
    self_s = summary["self_s"]
    calls = summary["calls"]
    counts = summary["counts"]
    draws = counts.get("draws", 0)
    substreams = calls.get("rng.substream", 0)
    return {
        "rng.substream_s": self_s.get("rng.substream", 0.0),
        "rng.substream_calls": substreams,
        "rng.streams_per_draw": substreams / draws if draws else 0.0,
        "simulation.draw_s": self_s.get("simulation.draw", 0.0),
        "simulation.calls": calls.get("simulation.draw", 0),
        "core.label_dist_s": self_s.get("core.label_dist", 0.0),
        "core.label_dists": calls.get("core.label_dist", 0),
        "correction.repair_s": self_s.get("correction.repair", 0.0),
        "correction.repair_calls": calls.get("correction.repair", 0),
        "correction.estimate_tm_s": self_s.get("correction.estimate_tm", 0.0),
        "harness.formats.load_dataset_s": self_s.get("harness.formats.load_dataset", 0.0),
        "harness.formats.load_log_s": self_s.get("harness.formats.load_log", 0.0),
        "harness.formats.join_s": self_s.get("harness.formats.join", 0.0),
        "harness.formats.rows": counts.get("rows", 0),
        "metrics.score_s": self_s.get("metrics.score", 0.0),
        "metrics.compare_self_s": self_s.get("metrics.compare", 0.0),
        "metrics.bin_matrix_s": self_s.get("metrics.bin_matrix", 0.0),
        "metrics.aggregate_s": self_s.get("metrics.aggregate", 0.0),
        "calibration.estimate_s": self_s.get("calibration.estimate", 0.0),
        "harness.experiments.self_s": self_s.get("harness.experiments", 0.0),
        "harness.experiments.emit_s": self_s.get("harness.experiments.emit", 0.0),
        "cli.write_s": self_s.get("cli", 0.0),
    }


LAYER_UNITS = {
    "rng.substream_calls": "count",
    "rng.streams_per_draw": "ratio",
    "simulation.calls": "count",
    "core.label_dists": "count",
    "correction.repair_calls": "count",
    "harness.formats.rows": "count",
    "calibration.in_band_ratio": "ratio",
    "error_rate": "ratio",
}


def _in_band_ratio(out: Path) -> float:
    path = out / "calibration.json"
    if not path.is_file():
        return 0.0
    report = json.loads(path.read_text(encoding="utf-8"))
    return report["n_in_band_records"] / report["n_records"]


def measure(workload: Workload, seed: int, seconds: float, trace: bool, images=None) -> dict:
    """One benchmark run; returns the full record, ``result`` being the last line."""
    images = workload.images if images is None else images
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        inputs = workload.make(work, seed, images)
        RESULTS.mkdir(exist_ok=True)
        tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
        # Two processes with different hash seeds share the measuring time;
        # every iteration of both must write the first iteration's bytes.
        steps = workload.steps(work, seed)
        processes = [
            _spawn_worker(
                {
                    "src": str(SRC), "steps": steps,
                    "seconds": seconds / len(HASH_SEEDS), "trace": trace,
                    "min_iterations": 2 if trace else 1,
                    "out": str(work / f"out{hash_seed}"),
                    "result": str(work / f"worker{hash_seed}.json"),
                    "spans": str(RESULTS / f"{tag}-spans.csv") if trace else None,
                },
                hash_seed,
            )
            for hash_seed in HASH_SEEDS
        ]
        setup = [] if trace else _setup_seconds()

        runs = [
            (work / f"out{hash_seed}" / str(i), record)
            for hash_seed, process in zip(HASH_SEEDS, processes)
            for i, record in enumerate(process["iterations"])
        ]
        iterations = [record for _, record in runs]
        failed = 0
        problems = []
        reference = None
        verdicts = {}  # output digests -> problems; equal bytes, equal verdict
        for (out, record) in runs:
            digests = _digests(out, workload.outputs)
            key = tuple(sorted(digests.items()))
            if record["codes"] != [0] * len(steps):
                found = [f"exit codes {record['codes']}: {record['stderr'].strip()[-500:]}"]
            else:
                if key not in verdicts:
                    verdicts[key] = _check(workload, out, images)
                found = list(verdicts[key])
            if reference is None:
                reference = digests
            elif digests != reference:
                found.append("outputs differ from the first iteration's bytes")
            record["ok"] = not found
            record["problems"] = found
            record["in_band_ratio"] = _in_band_ratio(out)
            failed += bool(found)
            problems += [f"{out.relative_to(work)}: {p}" for p in found]
        attempted = len(runs)

        units = workload.units(images)
        plain = [r for r in iterations if not r["traced"]]
        good = [r for r in plain if r["ok"]] or plain
        if trace:
            traced = [r for r in iterations if r["traced"]]
            per_layer = {}
            layer_values = [_layer_metrics(r["layers"]) for r in traced]
            for name in layer_values[0]:
                per_layer[name] = statistics.median(v[name] for v in layer_values)
            per_layer["calibration.in_band_ratio"] = statistics.median(
                r["in_band_ratio"] for r in iterations
            )
            per_layer["trace.overhead_s"] = statistics.median(
                r["seconds"] for r in traced
            ) - statistics.median(r["seconds"] for r in plain)
            per_layer["error_rate"] = failed / attempted
            metrics = {
                name: {"value": value, "unit": LAYER_UNITS.get(name, "s")}
                for name, value in per_layer.items()
            }
        else:
            metrics = {
                "throughput": {
                    "value": max(units / r["seconds"] for r in good),
                    "unit": "units/s",
                },
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {
                    "value": max(p["peak_rss_mb"] for p in processes),
                    "unit": "MB",
                },
            }
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        record = {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "images": images,
            "units_per_iteration": units,
            "environment": _environment(),
            "inputs_sha256": inputs,
            "outputs_sha256": reference,
            "setup_samples_s": setup,
            "iterations": [
                {k: v for k, v in r.items() if k != "stderr"} for r in iterations
            ],
            "problems": problems,
            "error_rate": failed / attempted,
            "result": result,
        }
        (RESULTS / f"{tag}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_report(record: dict) -> None:
    result = record["result"]
    plain = [r for r in record["iterations"] if not r["traced"]]
    secs = sorted(r["seconds"] for r in plain)
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"{record['images']} images  {record['units_per_iteration']} units/iteration "
        f"(1 unit = 1 {WORKLOADS[record['workload']].unit})"
    )
    print(
        f"  {len(record['iterations'])} iterations in {len(HASH_SEEDS)} processes, "
        f"closed loop, one command at a time; untraced iteration seconds "
        f"median {statistics.median(secs):.4f} max {secs[-1]:.4f} over {len(secs)}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(
        f"  error_rate {record['error_rate']:.4g} "
        f"({result['failed']} failed of {result['attempted']} attempted)"
    )
    for problem in record["problems"][:10]:
        print(f"  FAILED {problem}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("inputs_sha256 " + json.dumps(record["inputs_sha256"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "annobias" / "harness" / "cli.py").is_file():
        print(f"error: no annobias package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    _print_report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
