"""Package surface: the public names exported by orbitdesigns."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import orbitdesigns


def test_every_export_resolves_once():
    names = orbitdesigns.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(orbitdesigns, name)] == []
    namespace: dict = {}
    exec("from orbitdesigns import *", namespace)
    assert set(names) <= namespace.keys()


def test_every_traced_function_resolves():
    # the benchmark's tracer reports a missing target as absent rather than
    # failing, so a renamed or deleted function would blank its metrics
    path = Path(__file__).parents[1] / "perfbench" / "shim.py"
    spec = importlib.util.spec_from_file_location("perfbench_shim", path)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    targets = [(module, attr) for where, _ in shim.TARGETS.values() for module, attr in where]
    assert targets
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(f"orbitdesigns.{module}"),
                                       attr, None))]
    assert missing == []
