"""Every exported name exists, and the package re-exports only exported names."""

import ast
import importlib
from pathlib import Path

import pytest

import padia

MODULES = ("model", "spectrum", "dynamics", "oracle", "sweeps", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"padia.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(padia.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in MODULES, node.module
        module = importlib.import_module(f"padia.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(padia, alias.asname or alias.name) is getattr(module, alias.name)
