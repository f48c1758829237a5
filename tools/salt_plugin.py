"""pytest plugin: give every ``annobias.rng`` stream a salted key.

Load it with ``-p salt_plugin`` (``tools/`` and ``src/`` on ``PYTHONPATH``)
and set ``SALT_SWEEP_SALT``.  Each str or bytes key component is then
hashed after the salt; int components are unchanged.  ``substream`` and
``uniforms`` look ``key_words`` up at call time, so they stay consistent
with each other while every stream the package derives changes.  With
``SALT_SWEEP_FAILED`` set, the node id of each failing test is appended to
that file, one per line.
"""

import os


def pytest_configure(config):
    salt = os.environ.get("SALT_SWEEP_SALT")
    if salt is None:
        return
    from annobias import rng

    original, prefix = rng.key_words, salt.encode("utf-8")

    def salted(key):
        if isinstance(key, str):
            key = key.encode("utf-8")
        if isinstance(key, (bytes, bytearray)):
            return original(prefix + bytes(key))
        return original(key)  # a tuple's parts come back through ``salted``

    rng.key_words = salted


def pytest_runtest_logreport(report):
    failed = os.environ.get("SALT_SWEEP_FAILED")
    if failed and report.failed:
        with open(failed, "a", encoding="utf-8") as f:
            f.write(report.nodeid + "\n")
