"""Every name a module exports resolves on it.

``annobias``, ``annobias.harness`` and each of their modules list their
public names in ``__all__``; a name that is deleted but still listed there
breaks ``from annobias import *``.
"""

import importlib
import pkgutil

import pytest

import annobias
import annobias.harness

MODULES = sorted(
    {"annobias", "annobias.harness"}
    | {
        info.name
        for package in (annobias, annobias.harness)
        for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")
        if not info.ispkg
    }
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_the_gate_sees_every_module():
    assert {"annobias.calibration", "annobias.harness.formats"} <= set(MODULES)
