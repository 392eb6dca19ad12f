"""Shared fixtures: an explicit-generator group file used by several suites,
a dedup grid other than numerics.DEDUP_DIGITS or a size limit other than
numerics.MAX_ORDER for one test, and a count of the closures a test runs."""
from __future__ import annotations

import json

import numpy as np
import pytest

from orbitdesigns import groups, numerics


@pytest.fixture
def dedup_digits(monkeypatch):
    """Call with k to key every walk of the test at k digits. Groups are built
    afresh at k and dropped after the test, since a cached group keeps the
    elements it closed at another grid."""

    def set_digits(k: int) -> None:
        monkeypatch.setattr(numerics, "DEDUP_DIGITS", k)
        groups._build_cached.cache_clear()

    yield set_digits
    groups._build_cached.cache_clear()


@pytest.fixture
def max_order(monkeypatch):
    """Call with k to stop every walk of the test past k elements or lines.
    Groups are built afresh at k and dropped after the test, since a cached
    group may hold the elements it closed at another limit."""

    def set_limit(k: int) -> None:
        monkeypatch.setattr(numerics, "MAX_ORDER", k)
        groups._build_cached.cache_clear()

    yield set_limit
    groups._build_cached.cache_clear()


@pytest.fixture
def closures(monkeypatch):
    """The spec of each group whose elements the test closes, once per closure
    walk (a walk whose noun is "elements"). Groups are built afresh, since a
    cached group may already hold its elements."""
    walk = groups.FiniteMatrixGroup.walk
    specs = []

    def counted(group, start, step, too_many, split, noun):
        if noun == "elements":
            specs.append(group.spec)
        return walk(group, start, step, too_many, split, noun)

    monkeypatch.setattr(groups.FiniteMatrixGroup, "walk", counted)
    groups._build_cached.cache_clear()
    return specs


@pytest.fixture(scope="session")
def f4_path(tmp_path_factory):
    # the 1152-element real reflection group from its four simple-root reflections
    roots = [
        (0.0, 1.0, -1.0, 0.0),
        (0.0, 0.0, 1.0, -1.0),
        (0.0, 0.0, 0.0, 1.0),
        (0.5, -0.5, -0.5, -0.5),
    ]
    gens = []
    for r in roots:
        v = np.array(r)
        gens.append((np.eye(4) - 2.0 * np.outer(v, v) / (v @ v)).tolist())
    path = tmp_path_factory.mktemp("explicit") / "f4.json"
    path.write_text(json.dumps({"field": "R", "generators": gens}))
    return str(path)
