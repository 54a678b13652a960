"""Every exported name resolves, so a deleted function leaves no stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wavlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(wavlab.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"wavlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(wavlab.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names and [n for n in names if not hasattr(wavlab, n)] == []
