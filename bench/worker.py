"""Closed-loop runner for one workload, in a fresh interpreter.

Usage: ``python3 bench/worker.py SPEC.json``

The spec names the ``src`` directory to import ``annobias`` from, the CLI
argument lists of one iteration (``{out}`` stands for the iteration's own
output directory), the measuring time and whether to trace.  Iterations
run one after another until the time is up; with tracing, every second
iteration is traced so traced and untraced times come from the same
process.  The result JSON holds each iteration's wall time, exit codes and
captured stderr, the per-layer summary of traced iterations, and the
process's peak resident memory.  The spans of the last traced iteration
are written to ``spans`` in the spec.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, write_spans

MAX_ITERATIONS = 1000


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    from annobias.harness.cli import main

    tracer = Tracer() if spec["trace"] else None
    last_spans = []
    iterations = []
    deadline = time.perf_counter() + spec["seconds"]
    longest = 0.0
    # An iteration starts only if one as long as the longest so far still
    # ends before the deadline, so the run keeps to its time.  The cap stops
    # a program that fails at once from filling the disk with iterations.
    while len(iterations) < spec["min_iterations"] or (
        time.perf_counter() + longest < deadline and len(iterations) < MAX_ITERATIONS
    ):
        i = len(iterations)
        traced = tracer is not None and i % 2 == 1
        out = Path(spec["out"]) / str(i)
        out.mkdir(parents=True)
        argvs = [[a.replace("{out}", str(out)) for a in argv] for argv in spec["steps"]]
        codes, err = [], io.StringIO()
        gc.collect()
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                for argv in argvs:
                    codes.append(tracer.call(main, argv) if traced else main(argv))
        except Exception:
            # one broken iteration is recorded as a failure; the loop goes on
            codes.append(None)
            err.write(traceback.format_exc())
        finally:
            seconds = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        longest = max(longest, seconds)
        record = {
            "traced": traced,
            "seconds": seconds,
            "codes": codes,
            "stderr": err.getvalue(),
        }
        if traced:
            record["layers"] = tracer.summary()
            last_spans = list(tracer.spans)
            tracer.reset()
        iterations.append(record)

    if spec.get("spans"):
        write_spans(last_spans, spec["spans"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"iterations": iterations, "peak_rss_mb": peak_kb / 1024.0}


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
