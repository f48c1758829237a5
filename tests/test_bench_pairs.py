"""The summary of ``tools/bench_pairs.py`` on fixed result lines, without
running the benchmark."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "throughput", "unit": "units/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _result(throughput, setup_s, correct=True, failed=0):
    metrics = {"throughput": throughput, "setup_s": setup_s}
    return {
        "correct": correct,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "?"} for k, v in metrics.items()},
    }


def test_summary_gives_medians_quartiles_and_pairs_won():
    base = [(100, 0.2), (110, 0.1), (90, 0.3), (105, 0.2), (95, 0.2)]
    change = [(120, 0.3), (100, 0.3), (130, 0.3), (125, 0.1), (115, 0.3)]
    base, change = ([_result(*pair) for pair in runs] for runs in (base, change))
    throughput, setup = bench_pairs.summarize(base, change, END_TO_END)
    # base 90, 95, 100, 105, 110; change 100, 115, 120, 125, 130
    assert throughput == (
        "throughput (units/s, higher is better, bound 25%): "
        "base 100 [95, 105], change 120 [115, 125], "
        "median +20.00% (within bound), change better in 4/5 pairs, "
        "gain beyond the base's interquartile range: yes"
    )
    # base 0.1, 0.2, 0.2, 0.2, 0.3; change 0.1, 0.3, 0.3, 0.3, 0.3
    assert setup == (
        "setup_s (s, lower is better, bound 25%): "
        "base 0.2 [0.2, 0.2], change 0.3 [0.3, 0.3], "
        "median +50.00% (WORSE than bound), change better in 1/5 pairs, "
        "gain beyond the base's interquartile range: no"
    )


def test_one_pair_has_its_value_as_every_quartile():
    (line,) = bench_pairs.summarize([_result(10, 1)], [_result(9, 1)], END_TO_END[:1])
    assert "base 10 [10, 10], change 9 [9, 9], median -10.00% (within bound)" in line
    assert "change better in 0/1 pairs" in line


def test_failed_or_incorrect_runs_are_reported():
    good, wrong = _result(1, 1), _result(1, 1, correct=False)
    failed = _result(1, 1, failed=2)
    assert bench_pairs.failures([good, wrong, good, failed]) == [wrong, failed]


def test_imports_mode_reads_the_bench_snippet_and_summarizes_setup_s():
    root = TOOL.parent.parent
    assert "build_parser()" in bench_pairs._setup_snippet(root)
    (line,) = bench_pairs.summarize(
        [bench_pairs._import(f"print({v})", root) for v in (0.2, 0.1, 0.3)],
        [bench_pairs._import(f"print({v})", root) for v in (0.1, 0.2, 0.1)],
        END_TO_END[1:],
    )
    # base 0.1, 0.2, 0.3; change 0.1, 0.1, 0.2
    assert line == (
        "setup_s (s, lower is better, bound 25%): "
        "base 0.2 [0.15, 0.25], change 0.1 [0.1, 0.15], "
        "median -50.00% (within bound), change better in 2/3 pairs, "
        "gain beyond the base's interquartile range: yes"
    )
