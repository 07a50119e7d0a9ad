"""The docstring examples of every snckit module run as tests."""
import doctest
import importlib
import pkgutil

import pytest

import snckit

MODULES = ["snckit"] + sorted(f"snckit.{m.name}"
                              for m in pkgutil.iter_modules(snckit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_doctests_are_found():
    assert sum(doctest.testmod(importlib.import_module(name)).attempted
               for name in MODULES) > 0
