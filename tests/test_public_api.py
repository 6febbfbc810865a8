"""Every name a module of the package exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import ogaprox

MODULES = ["ogaprox"] + sorted(m.name for m in pkgutil.walk_packages(ogaprox.__path__, "ogaprox."))


def test_the_walk_reaches_the_problem_modules():
    assert {"ogaprox.problems", "ogaprox.problems.mksvm", "ogaprox.schedule"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
