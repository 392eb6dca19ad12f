"""Package surface: the public names exported by orbitdesigns."""
from __future__ import annotations

import orbitdesigns


def test_every_export_resolves_once():
    names = orbitdesigns.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(orbitdesigns, name)] == []
    namespace: dict = {}
    exec("from orbitdesigns import *", namespace)
    assert set(names) <= namespace.keys()
