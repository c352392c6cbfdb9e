"""Package surface: every exported name resolves, removed names stay gone, nothing is left unused."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mwrelay

MODULES = sorted(info.name for info in pkgutil.iter_modules(mwrelay.__path__))
ROOT = Path(__file__).resolve().parent.parent
# Source files by test id: package modules by file name, tests and demos by
# folder and file name.
SOURCES = {path.name: path for path in Path(mwrelay.__file__).parent.glob("*.py")
           if path.name != "__init__.py"}
SOURCES.update({f"{folder}/{path.name}": path for folder in ("tests", "demos")
                for path in (ROOT / folder).glob("*.py")})
# Removed public names: value wrappers whose fields callers now receive as
# plain arrays, helpers that no caller needs any more, and the scalar rate
# oracles, which live in tests/oracles.py.
REMOVED = ("LargeScaleProfile", "ChannelRealization", "SymbolFrame", "unit_profile",
           "trace_lemma_statistic", "fixed_frame", "uplink_sinr", "conventional_dl_sinr",
           "proposed_dl_sinr", "zf_sinr", "instantaneous_se", "uplink_bound",
           "conventional_dl_bound", "proposed_dl_bound", "DegenerateChannelError",
           "compose_channel")
# The dense oracles that the tests check the shipped kernels against; they
# stay in the package, but no shipped experiment, kernel or bound runs them.
ORACLES = frozenset({"build_zf_stage", "ZfStage", "combiner", "relay_precode", "draw_small_scale",
                     "STREAM_CHANNEL", "partner_index", "known_set", "remaining_unknowns",
                     "zf_coefficient_offset"})


def test_modules_found():
    assert {"channel", "cli", "montecarlo", "rates", "schedule", "validation"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"mwrelay.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from mwrelay import *", namespace)
    assert {"SystemConfig", "checked_gains", "qpsk_frame"} <= set(namespace)
    assert not set(REMOVED) & set(namespace)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_gone(name):
    assert not hasattr(mwrelay, name)
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"mwrelay.{module}"), name)


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_no_unused_imports(source):
    # No linter is a dependency, so this is the check that an import left
    # behind by a change is found. A name is used when the module reads it.
    tree = ast.parse(SOURCES[source].read_text(), filename=source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("source", ["cli.py", "montecarlo.py", "validation.py", "bounds.py"])
def test_shipped_modules_use_no_oracle(source):
    # A module reads a name when it imports it, loads it or looks it up as an attribute.
    tree = ast.parse(SOURCES[source].read_text(), filename=source)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read |= {alias.name.split(".")[-1] for alias in node.names}
    assert sorted(read & ORACLES) == []


def test_no_unreferenced_private_names():
    # A private helper that a change leaves behind is dead code: every
    # private name the package binds at module level is read, imported or
    # looked up as an attribute somewhere in the package.
    trees = [ast.parse(path.read_text(), filename=path.name)
             for path in Path(mwrelay.__file__).parent.glob("*.py")]
    bound = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound |= {name.id for target in targets for name in ast.walk(target)
                          if isinstance(name, ast.Name)}
    private = {name for name in bound if name.startswith("_") and not name.endswith("__")}
    referenced = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            referenced |= {alias.name for alias in node.names}
    assert sorted(private - referenced) == []
