import doctest
import importlib
import pkgutil

import pytest

import catalan_posets

# every module of the package; __main__ would run the CLI on import
MODULES = [
    f"catalan_posets.{info.name}"
    for info in pkgutil.iter_modules(catalan_posets.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
