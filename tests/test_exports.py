"""The package's public names: each module's __all__ and what gsdmm
re-exports from it agree."""

import ast
import importlib
from pathlib import Path

import pytest

import gsdmm

MODULES = sorted(path.stem for path in Path(gsdmm.__file__).parent.glob("*.py")
                 if path.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"gsdmm.{name}")
    for public in getattr(module, "__all__", []):
        assert hasattr(module, public), f"gsdmm.{name}.__all__ names {public!r}"


def test_package_imports_only_names_in_all():
    tree = ast.parse(Path(gsdmm.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"gsdmm.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, \
                f"gsdmm imports {alias.name!r}, not in gsdmm.{node.module}.__all__"
