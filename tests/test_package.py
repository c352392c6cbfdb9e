"""Package surface: every exported name resolves, and removed names stay gone."""

import importlib
import pkgutil

import pytest

import mwrelay

MODULES = sorted(info.name for info in pkgutil.iter_modules(mwrelay.__path__))
# Removed public names: value wrappers whose fields callers now receive as
# plain arrays, and helpers that no caller needs any more.
REMOVED = ("LargeScaleProfile", "ChannelRealization", "SymbolFrame", "unit_profile",
           "trace_lemma_statistic", "fixed_frame")


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
    assert {"SystemConfig", "checked_gains", "compose_channel", "qpsk_frame"} <= set(namespace)
    assert not set(REMOVED) & set(namespace)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_gone(name):
    assert not hasattr(mwrelay, name)
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"mwrelay.{module}"), name)
