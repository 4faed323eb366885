import ast
import importlib
import inspect

import pytest

import hypoflow


def _package_imports():
    """{submodule: names} for every `from .submodule import ...` in hypoflow/__init__."""
    tree = ast.parse(inspect.getsource(hypoflow))
    return {node.module: [alias.name for alias in node.names]
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1}


@pytest.mark.parametrize("module", sorted(_package_imports()))
def test_all_matches_the_package_exports(module):
    mod = importlib.import_module(f"hypoflow.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert [name for name in _package_imports()[module] if name not in mod.__all__] == []
