"""Every name a ``pvclean`` module exports in ``__all__`` exists.

A deletion or rename that leaves a stale entry behind fails here, not at
``from pvclean.<module> import *`` in a user's code.
"""

import importlib
import pkgutil

import pytest

import pvclean

MODULES = ["pvclean", *(f"pvclean.{m.name}" for m in pkgutil.iter_modules(pvclean.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which it does not define"
