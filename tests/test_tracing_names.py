"""The benchmark's tracer finds every name it wraps.

``perfbench/tracing.py`` looks its targets up by name, so a rename in
``kstruve`` would break the traced benchmark without failing any other test.
The tracer module is loaded from its file without writing bytecode next to it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_traced_names_resolve(tracing):
    assert tracing.TRACED
    for mod_name, attr, _ in tracing.TRACED:
        fn = getattr(importlib.import_module(f"kstruve.{mod_name}"), attr)
        assert callable(fn), f"kstruve.{mod_name}.{attr}"
        if attr.endswith("_info"):  # the tracer's hook reads the policy argument
            assert "pol" in inspect.signature(fn).parameters
    for ns_name in tracing.NAMESPACES:
        importlib.import_module(ns_name)


def test_forcing_value_exists():
    from kstruve.kinetics import KineticProblem

    assert callable(KineticProblem.forcing_value)
