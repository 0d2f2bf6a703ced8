"""Every exported name exists, and the package re-exports only exported names."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sarnet
from sarnet.graphs import GroupedNetwork, JProjector
from sarnet.regularization import Spectrum

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
    # identification reads a GroupedNetwork only: build_report is the one
    # verdict path, and no parameter takes a dense product as a callable
    for name in ("proposition1_check", "proposition2_rank_check"):
        assert not hasattr(sarnet, name)
        assert [m for m in MODULES
                if hasattr(importlib.import_module(f"sarnet.{m}"), name)] == []
    tree = ast.parse((PACKAGE / "identification.py").read_text())
    callables = [f"{node.name}({arg.arg})" for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 for arg in node.args.args + node.args.kwonlyargs
                 if arg.annotation is not None and "Callable" in ast.unparse(arg.annotation)]
    assert callables == []


def test_generalized_inverses_are_test_oracles():
    # the package fits through the instrument spectrum; least-squares and
    # pseudo-inverse forms, like the dense ones, live in tests/oracles.py
    banned = {"lstsq", "pinv"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in banned:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert found == []


def test_package_imports_numpy_alone():
    # scipy.linalg maps a second OpenBLAS into every process; a fresh
    # interpreter, since this session's own imports would mask a regression
    code = ("import sarnet, sarnet.cli, sys; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool_or_polynomial_classes():
    # a pool's machinery (multiprocessing, sockets, logging) loads only when
    # a study runs on more than one worker, and rho_tilde's quartic is plain
    # coefficient arrays; a fresh interpreter, as above
    code = ("import sarnet.cli, sys; "
            "print(sorted(m for m in ('multiprocessing', 'numpy.polynomial') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_removed_wrappers_stay_removed():
    # a selection curve already holds (alpha, criterion, S_hat) at every
    # grid point, and the bias trace reads the instrument set's Gram, so the
    # one-point selection wrappers and the support-scanning F'DF are gone;
    # the structural residual is the whitened residual at (lambda, beta);
    # the package reads a stack's row-sum norm from BlockStacks, so the
    # array form is a test oracle
    for module, name in (("selection", "criterion_value"), ("selection", "s_hat"),
                         ("transforms", "gram_D"), ("transforms", "structural_residual"),
                         ("transforms", "row_sum_norm")):
        assert not hasattr(sarnet, name)
        assert not hasattr(importlib.import_module(f"sarnet.{module}"), name)


def test_first_stage_owns_the_spectrum():
    # a roster is decomposed by its first stage, not cached on the set, and
    # the bias trace is the spectrum's own weighted trace: only
    # regularization reads how a spectrum is represented
    from sarnet.instruments import InstrumentSet
    assert not hasattr(InstrumentSet, "spectrum")
    assert not hasattr(importlib.import_module("sarnet.estimation"), "_bias_trace")
    representation = {"factor", "basis", "scale", "reflectors", "cluster_start", "cluster_size",
                      "cluster_diagonal"}
    readers = [f"{m}:{node.lineno} {node.attr}" for m in MODULES if m != "regularization"
               for node in ast.walk(ast.parse((PACKAGE / f"{m}.py").read_text()))
               if isinstance(node, ast.Attribute) and node.attr in representation]
    assert readers == []
    # psi = F C is never formed whole; the n x rank form is a test oracle
    assert not hasattr(Spectrum, "vectors")


def test_no_function_level_imports_between_layers():
    # modules import each other at the top only, lower layers first
    found = []
    for m in MODULES:
        for node in ast.walk(ast.parse((PACKAGE / f"{m}.py").read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{m}.{node.name}" for inner in ast.walk(node)
                          if isinstance(inner, ast.ImportFrom) and inner.level > 0]
    assert found == []


def test_only_graphs_knows_the_per_size_layout():
    # which rows each size's stack covers, and the groups it holds, are
    # read in graphs alone: the other modules go through stacks(), blocks(),
    # map() and the network's kernels.  cli's argparse namespace has a
    # --groups option of its own.  J is built in graphs too.
    assert sarnet.JProjector is JProjector
    assert not hasattr(importlib.import_module("sarnet.transforms"), "JProjector")
    readers = []
    for m in MODULES:
        if m == "graphs":
            continue
        for node in ast.walk(ast.parse((PACKAGE / f"{m}.py").read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in ("parts", "groups")
                    and ast.unparse(node.value) != "args"):
                readers.append(f"{m}:{node.lineno} .{node.attr}")
            if isinstance(node, ast.ImportFrom):
                readers += [f"{m}:{node.lineno} {a.name}" for a in node.names
                            if a.name in ("_group_rows", "_map_stacked")]
    assert readers == []


def test_instrument_set_owns_the_column_rule():
    # peaks, drops and rescaling are InstrumentSet methods, so nothing
    # outside its class body reads the per-group layout, and the roster
    # builders' own zero-column helpers stay gone
    instruments = importlib.import_module("sarnet.instruments")
    for name in ("_keep_nonzero", "_group_subset", "_drop_zero_columns"):
        assert not hasattr(instruments, name)
    layout = {"V", "starts", "mask", "_rows", "_segment_sums", "_by_power", "_scatter",
              "_single"}
    readers = []
    for m in MODULES:
        tree = ast.parse((PACKAGE / f"{m}.py").read_text())
        owner = {id(node) for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) and cls.name == "InstrumentSet"
                 for node in ast.walk(cls)}
        readers += [f"{m}:{node.lineno} {node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr in layout
                    and id(node) not in owner]
    assert readers == []
