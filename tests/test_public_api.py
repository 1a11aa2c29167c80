"""Every name a module lists in ``__all__`` exists on that module."""

import importlib
import pkgutil

import pytest

import tsdiag

MODULES = sorted(info.name for info in pkgutil.iter_modules(tsdiag.__path__, "tsdiag."))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []

