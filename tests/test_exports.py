"""Every exported name exists, the package re-exports ``evolve`` alone, and
README's library code runs on the module import routes."""

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


def test_package_reexports_evolve_alone():
    public = {name for name in vars(padia) if not name.startswith("_")}
    assert public - set(MODULES) == {"evolve"}
    assert padia.evolve is importlib.import_module("padia.dynamics").evolve


def test_readme_python_blocks_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["point"].s == 0.5
