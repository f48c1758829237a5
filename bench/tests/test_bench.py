"""Self-tests of the benchmark: generator determinism and a small smoke run.

Run from the repository root with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Small enough for a quick run, large enough that every law-based check
# keeps its margin (the compare ranking needs its full 1800 records).
SMOKE_IMAGES = {"simulate-k10": 200, "compare-k10": 600, "ingest-k100": 200}


@pytest.fixture
def isolated_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    return tmp_path


@pytest.mark.parametrize("make", [gen.make_simulate, gen.make_compare, gen.make_ingest])
def test_generator_is_byte_deterministic(tmp_path, make):
    first = make(tmp_path / "a", 5, 30)
    again = make(tmp_path / "b", 5, 30)
    other = make(tmp_path / "c", 6, 30)
    assert first == again
    for name in first:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert first != other


def test_declared_workloads_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_run_passes_every_check(isolated_dirs, name):
    record = run.measure(run.WORKLOADS[name], 3, 0, False, images=SMOKE_IMAGES[name])
    result = record["result"]
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_smoke_run_reports_every_layer(isolated_dirs):
    record = run.measure(run.WORKLOADS["simulate-k10"], 3, 0, True, images=100)
    result = record["result"]
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["rng.substream_calls"] == 100 * 4 + 1
    assert metrics["simulation.calls"] == 100 * 4
    assert metrics["harness.formats.load_log_s"] == 0.0
    spans = (isolated_dirs / "results").glob("*-spans.csv")
    assert len(list(spans)) == 1
