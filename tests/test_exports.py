"""Every exported name exists, and the package re-exports only exported names."""

import ast
import importlib
from pathlib import Path

import pytest

import sarnet
from sarnet.graphs import GroupedNetwork
from sarnet.transforms import JProjector

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


def test_dense_network_forms_are_test_oracles():
    # the network is held only as per-group blocks and J only as its bases;
    # dense W, M, S(lambda), R(rho) and J live in tests/oracles.py
    for name in ("s_matrix", "r_matrix"):
        assert not hasattr(sarnet, name)
        assert [m for m in MODULES
                if hasattr(importlib.import_module(f"sarnet.{m}"), name)] == []
    assert [a for a in ("W", "M", "slices") if hasattr(GroupedNetwork, a)] == []
    assert [a for a in ("as_matrix", "block", "block_stacks")
            if hasattr(JProjector, a)] == []
