"""Per-layer spans recorded from outside the program.

A :class:`Tracer` wraps public functions of the ``annobias`` modules in
every namespace where a caller looks them up: module globals (as bound by
``from .x import f``) and module-level dicts that hold the function (such
as a metric-name table).  Each call becomes a span ``[name, start, end,
parent]`` kept in memory.  A call made while the innermost open span has
the same name is not recorded again, so a layer calling its own public
functions counts once.  :meth:`Tracer.uninstall` puts every original back,
so untraced calls run the unmodified code.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


def _draws(args, kwargs, result):
    # simulate_strategy_set(strategy, gt, proposal, params, rng) draws
    # params.repetitions annotations; simulate_with_strategy draws one.
    params = args[3] if len(args) > 3 else kwargs.get("p")
    return getattr(params, "repetitions", 1)


def _dataset_rows(args, kwargs, result):
    return len(result.images) + sum(len(i.annotation_classes) for i in result.images)


def _log_rows(args, kwargs, result):
    return len(result)


# (module, public function, span name, optional (counter, amount) hook)
LAYERS = (
    ("annobias.rng", "substream", "rng.substream", None),
    ("annobias.simulation", "simulate_strategy_set", "simulation.draw", ("draws", _draws)),
    ("annobias.simulation", "simulate_with_strategy", "simulation.draw", ("draws", _draws)),
    ("annobias.correction", "repair_labels", "correction.repair", None),
    ("annobias.correction", "estimate_transition_matrix", "correction.estimate_tm", None),
    ("annobias.harness.formats", "load_dataset", "harness.formats.load_dataset", ("rows", _dataset_rows)),
    ("annobias.harness.formats", "load_acceptance_log", "harness.formats.load_log", ("rows", _log_rows)),
    ("annobias.harness.formats", "acceptance_records_from_log", "harness.formats.join", None),
    ("annobias.metrics", "kl_divergence", "metrics.score", None),
    ("annobias.metrics", "compare_strategies", "metrics.compare", None),
    ("annobias.metrics", "build_bin_matrix", "metrics.bin_matrix", None),
    ("annobias.metrics", "bin_index", "metrics.bin_matrix", None),
    ("annobias.metrics", "aggregate_scores", "metrics.aggregate", None),
    ("annobias.calibration", "estimate_delta_banded", "calibration.estimate", None),
    ("annobias.harness.experiments", "run_simulation_experiment", "harness.experiments", None),
    ("annobias.harness.experiments", "run_strategy_comparison", "harness.experiments", None),
    ("annobias.harness.experiments", "run_calibration", "harness.experiments", None),
    ("annobias.harness.experiments", "run_label_correction", "harness.experiments", None),
    ("annobias.harness.experiments", "emit_report", "harness.experiments.emit", None),
)

# LabelDistribution validation runs in its __post_init__, whoever constructs it.
METHODS = (("annobias.core", "LabelDistribution", "__post_init__", "core.label_dist"),)

ROOT = "cli"


class Tracer:
    """In-memory span recorder with reversible function wrapping."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def wrap(self, fn, name, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, stack[-1][0] if stack else -1]
            stack.append((len(spans), name))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                counts[hook[0]] += hook[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function wherever an ``annobias`` module holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("annobias")]
        for module_name, attr, name, hook in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
                    elif type(value) is dict:
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, traced)
        for module_name, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, method, self.wrap(vars(cls)[method], name))

    def _patch(self, owner, key, value) -> None:
        """Replace ``owner[key]`` (a dict) or ``owner.key``, remembering the old value."""
        if type(owner) is dict:
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if type(owner) is dict:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def call(self, fn, *args):
        """Run ``fn(*args)`` under the root span."""
        return self.wrap(fn, ROOT)(*args)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Self time and call count per span name, plus the hook counters.

        A span's self time is its duration minus the durations of its
        direct children; children never overlap in one thread.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - covered[i]
            calls[name] += 1
        return {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(self.counts)}



def write_spans(spans, path) -> None:
    """Write spans as CSV rows ``index,name,start,end,parent``."""
    lines = ["index,name,start,end,parent"]
    lines += [
        f"{i},{name},{start!r},{end!r},{parent}"
        for i, (name, start, end, parent) in enumerate(spans)
    ]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
