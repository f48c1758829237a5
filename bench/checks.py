"""Law-based checks on one iteration's outputs.

Each check returns a list of problems; an empty list means the outputs
are correct.  The checks test properties the acceptance law guarantees
rather than byte digests, so a deliberate change of the program's
random-stream scheme still passes them.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

from gen import DELTA

SIMULATE_COUNTS = (5, 10, 20, 50)
STRATEGIES = 7
ROW_SUM_TOL = 1e-9
# The banded estimate from ~7k in-band records has a standard error near
# 0.01; five of them keeps a false alarm out of reach.
DELTA_TOL = 0.05


def _rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.reader(f))


def check_simulate(out: Path, n_images: int) -> list:
    """Finite scores, one row per (image, count, variant), repair beats raw."""
    problems = []
    rows = _rows(out / "results.csv")
    if rows[0] != ["image_id", "annotations", "variant", "metric", "value"]:
        return [f"results.csv header {rows[0]}"]
    body = rows[1:]
    want = n_images * len(SIMULATE_COUNTS) * 2
    if len(body) != want:
        problems.append(f"results.csv has {len(body)} rows, expected {want}")
    values = {}
    for image_id, n, variant, metric, value in body:
        v = float(value)
        if not math.isfinite(v):
            problems.append(f"non-finite {metric} for {image_id} at n={n}")
        values.setdefault((int(n), variant), []).append(v)
    for n in SIMULATE_COUNTS:
        raw = values.get((n, "raw"))
        repaired = values.get((n, "repaired"))
        if not raw or not repaired:
            problems.append(f"no scores at n={n}")
        elif not statistics.median(repaired) < statistics.median(raw):
            problems.append(
                f"n={n}: median repaired KL {statistics.median(repaired)!r} "
                f">= raw {statistics.median(raw)!r}"
            )
    aggregates = _rows(out / "aggregates.csv")[1:]
    if len(aggregates) != len(SIMULATE_COUNTS) * 2 * 2:
        problems.append(f"aggregates.csv has {len(aggregates)} rows")
    if not all(math.isfinite(float(row[-1])) for row in aggregates):
        problems.append("non-finite aggregate")
    return problems


def check_compare(out: Path) -> list:
    """Seven ranked strategies, the log's own law first."""
    rows = _rows(out / "compare.csv")[1:]
    if len(rows) != STRATEGIES:
        return [f"compare.csv has {len(rows)} strategies, expected {STRATEGIES}"]
    problems = []
    if not all(math.isfinite(float(row[1])) for row in rows):
        problems.append("non-finite mean SOD")
    if rows[0][0] != "ACCEPT_GT":
        problems.append(f"{rows[0][0]} ranks first, ACCEPT_GT drew the log")
    return problems


def check_ingest(out: Path, image_ids: list, log_rows: int) -> list:
    """One unit-sum repaired row per image; banded estimate near delta."""
    problems = []
    rows = _rows(out / "repaired.csv")
    body = rows[1:]
    if [r[0] for r in body] != image_ids:
        problems.append(f"repaired.csv rows do not match the {len(image_ids)} images")
    for row in body:
        total = math.fsum(float(v) for v in row[1:])
        if not abs(total - 1.0) <= ROW_SUM_TOL:
            problems.append(f"{row[0]}: repaired row sums to {total!r}")
            break
    report = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
    if report["n_records"] != log_rows:
        problems.append(f"calibration used {report['n_records']} of {log_rows} records")
    if not abs(report["estimate"] - DELTA) <= DELTA_TOL:
        problems.append(f"banded estimate {report['estimate']!r}, log drawn at {DELTA}")
    return problems
