from __future__ import annotations

import importlib
import pkgutil

import pytest

import tannerflip

PACKAGE_MODULES = ["tannerflip"] + [
    f"tannerflip.{info.name}" for info in pkgutil.iter_modules(tannerflip.__path__)
]
EXPORTING = [
    name for name in PACKAGE_MODULES if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
