"""Every exported name exists, and the package re-exports only exported names."""

import ast
import importlib
from pathlib import Path

import pytest

import sarnet

PACKAGE = Path(sarnet.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"sarnet.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"sarnet.{node.module}")
        unexported = [a.name for a in node.names if a.name not in module.__all__]
        assert unexported == [], f"sarnet.{node.module}"


def test_dense_projector_forms_are_test_oracles():
    # n x n forms of P^alpha live in tests/oracles.py; the package has only
    # the spectral route
    for name in ("projector_matrix", "projector_diagonal"):
        assert not hasattr(sarnet, name)
        assert [m for m in MODULES
                if name in importlib.import_module(f"sarnet.{m}").__all__] == []
