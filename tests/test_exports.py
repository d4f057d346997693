import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import imgflib

MODULES = sorted(m.name for m in pkgutil.iter_modules(imgflib.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"imgflib.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(imgflib.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module("." * node.level + (node.module or ""), "imgflib")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert hasattr(imgflib, alias.asname or alias.name)
