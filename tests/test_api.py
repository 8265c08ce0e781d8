"""Every exported name resolves, so a deletion cannot leave a stale export behind."""

import ast
import importlib
import pkgutil
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
