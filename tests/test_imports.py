"""Each module of the package imports on its own, in a fresh interpreter.

The package root imports none of its modules, so an import cycle between
two of them would show only to a caller that imports one of them first.
"""

import pkgutil

import pytest

import flowexplain

from .conftest import run_fresh

MODULES = sorted(info.name for info in pkgutil.iter_modules(flowexplain.__path__))


def test_modules_are_found():
    assert {"_http", "cli", "pipeline", "prompts", "service"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    result = run_fresh(f"import flowexplain.{module}")
    assert result.returncode == 0, result.stderr
