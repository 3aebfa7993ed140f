from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_openssl_unloaded():
    # hashlib loads OpenSSL (_hashlib), a few MB of resident memory that the
    # library's only hash, blake2b, does not need
    env = dict(os.environ)
    src = str(Path(tannerflip.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, tannerflip; assert '_hashlib' not in sys.modules"
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def test_imports_only_the_standard_library():
    # the library is pure standard-library Python; relative imports are its own
    outside = []
    for path in sorted(Path(tannerflip.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}" for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_every_imported_name_is_used_or_exported():
    # a name a module imports but neither uses nor lists in __all__ is a
    # leftover of code that has gone
    leftover = []
    for path in sorted(Path(tannerflip.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, used, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= set(ast.literal_eval(node.value))
        leftover += [f"{path.name}: {name}" for name in sorted(imported - used - exported)]
    assert leftover == []
