"""Every name a module exports resolves, and is exported once."""

import importlib
import pkgutil

import pytest

import meissner

MODULES = ["meissner"] + [f"meissner.{info.name}" for info in pkgutil.iter_modules(meissner.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    assert [n for n in module.__all__ if not hasattr(module, n)] == []

