"""Every name a module exports in ``__all__`` resolves.

A helper removed or renamed while its name stays in ``__all__`` breaks
``from kstruve.<module> import *`` without failing any other test.
"""

import importlib
import pkgutil

import pytest

import kstruve

MODULES = ["kstruve"] + [f"kstruve.{info.name}" for info in pkgutil.iter_modules(kstruve.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"

