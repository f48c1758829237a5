"""Run the benchmark in alternating pairs: a base commit against this checkout.

Usage (from the repository root)::

    python3 tools/bench_pairs.py --base HEAD~1 --workload ingest-k100 \\
        --pairs 5 --seconds 36 --seed 5

The base commit is exported with ``git archive`` into a temporary
directory, and this checkout is copied beside it without the files git
ignores, so a ``__pycache__`` left here does not shorten its ``setup_s``.
Each pair runs ``python3 bench/run.py --workload W --seed K --seconds S
--trace 0`` once in each copy; the side that runs first alternates from
pair to pair.  The tool prints every
pair's end-to-end metrics, then for each metric of ``BENCHMARK.json`` both
sides' median and quartiles, the relative change of the median against the
metric's bound, and in how many pairs the change did better.  It exits 1
when any run reads ``correct`` false or ``failed`` above 0.

With ``--imports N`` (and no ``--workload``) the tool times only the
interpreter start that ``setup_s`` measures: it runs ``bench/run.py``'s
``SETUP_SNIPPET`` in N fresh interpreters per side, the sides alternating
as above, and summarizes ``setup_s`` the same way::

    python3 tools/bench_pairs.py --base HEAD~1 --imports 60

Tier-1 never collects this directory.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _copy_checkout(dest: Path) -> None:
    """Copy this checkout's tracked and untracked files, ignored ones left out."""
    listed = ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"]
    names = subprocess.run(listed, cwd=ROOT, capture_output=True, check=True).stdout
    for name in filter(None, map(os.fsdecode, names.split(b"\0"))):
        if (ROOT / name).is_file():  # a tracked file deleted here is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in ``checkout``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench/run.py failed in {checkout}:\n{done.stderr}")
    return json.loads(lines[-1])


def _setup_snippet(checkout: Path) -> str:
    """``SETUP_SNIPPET`` of ``bench/run.py`` in ``checkout``, read without
    importing that module."""
    tree = ast.parse((checkout / "bench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        targets = getattr(node, "targets", [])
        if [getattr(t, "id", None) for t in targets] == ["SETUP_SNIPPET"]:
            return ast.literal_eval(node.value)
    sys.exit(f"no SETUP_SNIPPET in {checkout / 'bench' / 'run.py'}")


def _import(snippet: str, checkout: Path) -> dict:
    """A result line holding the ``setup_s`` that one fresh interpreter
    reports for ``snippet`` with ``checkout``'s ``src`` first on its path,
    as ``bench/run.py`` starts it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [sys.executable, "-c", snippet]
    done = subprocess.run(
        argv, cwd=checkout, env=env, capture_output=True, text=True, timeout=60
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"the set-up snippet failed in {checkout}:\n{done.stderr}")
    setup_s = {"value": float(lines[-1]), "unit": "s"}
    return {"correct": True, "failed": 0, "metrics": {"setup_s": setup_s}}


def _quartiles(values: list) -> tuple:
    """``(q1, median, q3)`` of ``values``, inclusive of the extremes."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(base: list, change: list, end_to_end: list) -> list:
    """Lines comparing the result lines of ``base`` and ``change``, run in
    pairs (``base[i]`` beside ``change[i]``), on each ``end_to_end`` metric
    of ``BENCHMARK.json``."""
    lines = []
    for m in end_to_end:
        name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        won = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
        (bq1, bmed, bq3), (cq1, cmed, cq3) = _quartiles(b), _quartiles(c)
        change_pct = (cmed - bmed) / bmed * 100
        worse = -change_pct if higher else change_pct
        verdict = "within bound" if worse <= bound * 100 else "WORSE than bound"
        beyond = (cmed - bmed > bq3 - bq1) if higher else (bmed - cmed > bq3 - bq1)
        lines.append(
            f"{name} ({m['unit']}, {m['better']} is better, bound {bound:.0%}): "
            f"base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}], "
            f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}], "
            f"median {change_pct:+.2f}% ({verdict}), "
            f"change better in {won}/{len(b)} pairs, "
            f"gain beyond the base's interquartile range: {'yes' if beyond else 'no'}"
        )
    return lines


def failures(runs: list) -> list:
    """The runs that read ``correct`` false or ``failed`` above 0."""
    return [r for r in runs if r["correct"] is not True or r["failed"] > 0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--workload", help="a workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument(
        "--imports",
        type=int,
        metavar="N",
        help="time only the set-up snippet, in N fresh interpreters per side",
    )
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.imports is None):
        parser.error("give exactly one of --workload and --imports")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = spec["end_to_end"]
    if args.imports is not None:
        end_to_end = [m for m in end_to_end if m["name"] == "setup_s"]
    names = [m["name"] for m in end_to_end]

    base, change = [], []
    with tempfile.TemporaryDirectory() as tmp:
        export = Path(tmp) / "base"
        export.mkdir()
        tar = Path(tmp) / "base.tar"
        archive = ["git", "archive", "-o", str(tar), args.base]
        subprocess.run(archive, cwd=ROOT, check=True)
        subprocess.run(["tar", "-xf", str(tar), "-C", str(export)], check=True)
        here = Path(tmp) / "change"
        _copy_checkout(here)
        if args.imports is None:
            measure = partial(
                _run, workload=args.workload, seed=args.seed, seconds=args.seconds
            )
            count = args.pairs
            title = (
                f"{args.workload}, base {args.base}, {args.pairs} pairs of "
                f"{args.seconds} s, seed {args.seed}"
            )
        else:
            measure = partial(_import, _setup_snippet(export))
            count = args.imports
            title = f"set-up imports, base {args.base}, {args.imports} pairs"
        for i in range(count):
            sides = [(export, base), (here, change)]
            for checkout, runs in sides if i % 2 == 0 else sides[::-1]:
                runs.append(measure(checkout))
            row = {
                side: {name: r[-1]["metrics"][name]["value"] for name in names}
                for side, r in (("base", base), ("change", change))
            }
            first = "base" if i % 2 == 0 else "change"
            print(f"pair {i + 1} ({first} first): {json.dumps(row)}", flush=True)

    print(title)
    for line in summarize(base, change, end_to_end):
        print("  " + line)
    bad = failures(base + change)
    for r in bad:
        print(f"  FAILED run: correct {r['correct']}, failed {r['failed']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
