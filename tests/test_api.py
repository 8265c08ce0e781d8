"""Every exported name resolves, so a deletion cannot leave a stale export behind,
and the package loads without its test tooling."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import nrsteer

MODULES = sorted(info.name for info in pkgutil.iter_modules(nrsteer.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"nrsteer.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    # each name the package imports from a submodule is one that submodule exports
    tree = ast.parse(Path(nrsteer.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"nrsteer.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__
            assert getattr(nrsteer, alias.name) is getattr(module, alias.name)


def test_cli_import_loads_no_test_tooling():
    # the test kit, the property suite and their scipy.optimize load only with `nrsteer verify`
    tooling = ("scipy.optimize", "nrsteer.testkit", "nrsteer.verify")
    code = f"import sys, nrsteer.cli; print([m for m in {tooling!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(nrsteer.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"
    testkit = importlib.import_module("nrsteer.testkit")
    assert [name for name in testkit.__all__ if hasattr(nrsteer, name)] == []
