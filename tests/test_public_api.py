"""Every name a module lists in ``__all__`` exists on that module, and the
package states one version."""

import importlib
import os
import pkgutil
import re

import pytest

import tsdiag
from tsdiag.version import __version__

MODULES = sorted(info.name for info in pkgutil.iter_modules(tsdiag.__path__, "tsdiag."))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_pyproject_version_is_the_package_version():
    # a regex, not tomllib: Python 3.10 has no TOML reader
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path) as fh:
        project = fh.read().split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "([^"]*)"$', project, re.MULTILINE) == [__version__]
