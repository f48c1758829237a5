"""Run the test suite under many salted streams and count each test's passes.

Usage (from the repository root)::

    python3 tools/salt_sweep.py --salts 10 [pytest arguments, default tests]

Each salt runs pytest once, in its own process, with ``salt_plugin``
loaded: every string and bytes key of every ``annobias.rng`` stream is
hashed after the salt, so each run sees a fresh set of streams.  The tool
prints, for each test that failed under at least one salt, how many of the
salts it passed under.  A test that fails under every salt pins stream
bytes; one that fails under some salts depends on the stream it happens to
draw.  Tier-1 never collects this directory.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sweep(salts: list, pytest_args: list) -> Counter:
    """Failures per node id over one pytest run per salt."""
    failures = Counter()
    path = [str(ROOT / "src"), str(ROOT / "tools"), os.environ.get("PYTHONPATH", "")]
    with tempfile.TemporaryDirectory() as tmp:
        for salt in salts:
            failed = Path(tmp) / f"failed-{salt}.txt"
            env = dict(
                os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, path)),
                SALT_SWEEP_SALT=salt,
                SALT_SWEEP_FAILED=str(failed),
            )
            argv = [sys.executable, "-m", "pytest", "-q", "-p", "salt_plugin"]
            argv += ["-p", "no:cacheprovider", *pytest_args]
            done = subprocess.run(
                argv, cwd=ROOT, env=env, capture_output=True, text=True
            )
            summary = done.stdout.strip().splitlines()[-1:] or ["no output"]
            print(f"salt {salt!r}: exit {done.returncode}, {summary[0]}", flush=True)
            if done.returncode not in (0, 1):
                sys.exit(f"pytest could not run under salt {salt!r}:\n{done.stderr}")
            if failed.exists():
                failures.update(set(failed.read_text(encoding="utf-8").splitlines()))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--salts", type=int, default=10, help="salts salt-0, ...")
    args, pytest_args = parser.parse_known_args(argv)
    salts = [f"salt-{i}" for i in range(args.salts)]
    failures = sweep(salts, pytest_args or ["tests"])
    print(f"\npasses of {len(salts)} salts, for each test that failed at least once:")
    for nodeid, count in sorted(failures.items(), key=lambda item: (-item[1], item[0])):
        print(f"{len(salts) - count:>6}  {nodeid}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
