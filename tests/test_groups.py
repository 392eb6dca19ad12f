"""Group construction: spec grammar, closure, unitarization, catalog."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from orbitdesigns import (
    InputError,
    SizeLimitError,
    build_group,
    canonical_line,
    catalog,
    catalog_entry,
    close_group,
    orbit_lines,
    parse_group_spec,
    unitarize,
)
from orbitdesigns.groups import build_generators


@pytest.mark.parametrize(
    "spec,order",
    [
        ("G(2,1,2)", 8),
        ("G(2,1,3)", 48),
        ("G(2,1,4)", 384),
        ("G(1,1,5)", 120),
        ("G(2,2,3)", 24),
        ("G(2,2,4)", 192),
        ("G(3,3,3)", 54),
        ("G(4,2,2)", 16),
    ],
)
def test_imprimitive_orders(spec, order):
    # |G(m,p,n)| = m^n n! / p
    assert build_group(spec).order == order
    assert len(build_group(spec).elements) == order


@pytest.mark.parametrize(
    "spec,order",
    [
        ("dihedral(3)", 6),
        ("dihedral(10)", 20),
        ("rot(7)", 7),
        ("binD(4)", 8),
        ("binD(6)", 12),
        ("binT", 24),
        ("binO", 48),
        ("binI", 120),
        ("H3", 120),
        ("H4", 14400),
        ("heis(3)", 27),
        ("heis(4)", 64),
    ],
)
def test_named_family_orders(spec, order):
    assert build_group(spec).order == order
    assert len(build_group(spec).elements) == order


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_symmetric_hyperplane_orders(d):
    g = build_group(f"A({d})")
    assert g.order == math.factorial(d + 1)
    assert len(g.elements) == g.order
    assert g.dim == d


@pytest.mark.parametrize(
    "spec,dim,field",
    [
        ("G(2,1,4)", 4, "R"),
        ("G(3,1,2)", 2, "C"),
        ("binI", 2, "C"),
        ("H4", 4, "R"),
        ("heis(3)", 3, "C"),
        ("A(3)", 3, "R"),
    ],
)
def test_dim_and_field(spec, dim, field):
    g = build_group(spec)
    assert g.dim == dim
    assert g.field == field


@pytest.mark.parametrize(
    "bad",
    [
        "G(2,2,2)",  # reducible
        "G(3,2,3)",  # p must divide m
        "G(3,3,1)",  # n >= 2
        "D(2)",
        "dihedral(2)",
        "rot(2)",
        "binD(5)",
        "binD(2)",
        "heis(1)",
        "A(0)",
        "Q8",
        "B(",
        "",
        "binT(3)",
    ],
)
def test_spec_grammar_rejections(bad):
    with pytest.raises(InputError):
        build_group(bad)


def test_spec_labels_round_trip():
    for text in ["G(2,1,3)", "A(4)", "B(3)", "D(4)", "dihedral(5)", "binI", "H3"]:
        spec = parse_group_spec(text)
        assert parse_group_spec(str(spec)) == spec


def test_unitarity_after_build():
    for spec in ["G(2,1,3)", "A(3)", "binO", "H3", "heis(3)", "dihedral(7)"]:
        assert build_group(spec).unitarity_deviation() <= 1e-9


def test_dihedral3_contains_stated_generators():
    g = build_group("dihedral(3)")
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    rotation = np.array([[c, -s], [s, c]])
    reflection = np.diag([1.0, -1.0])
    for target in (rotation, reflection):
        assert min(np.abs(e - target).max() for e in g.elements) < 1e-9


def test_heisenberg_contains_shift_and_clock():
    g = build_group("heis(3)")
    shift = np.roll(np.eye(3), 1, axis=0).astype(complex)
    omega = np.exp(2j * np.pi / 3)
    clock = np.diag([1.0, omega, omega**2])
    for target in (shift, clock):
        assert min(np.abs(e - target).max() for e in g.elements) < 1e-9


def test_unitarize_conjugated_copy():
    # conjugate dihedral(3) by a fixed well-conditioned matrix, then restore
    spec = parse_group_spec("dihedral(3)")
    gens, field = build_generators(spec)
    M = np.array([[1.0, 0.3], [-0.2, 1.1]])
    Minv = np.linalg.inv(M)
    skew = [Minv @ g @ M for g in gens]
    group = close_group(skew, field, spec)
    assert group.order == 6
    assert group.unitarity_deviation() > 1e-6
    fixed = unitarize(group)
    assert fixed.unitarity_deviation() <= 1e-9
    assert fixed.order == 6


def test_explicit_non_unitary_generators_are_conjugated(tmp_path):
    # skewed dihedral(3) generators: the group is closed and unitarized when it
    # is built, and its generators are conjugated with its elements
    gens, _ = build_generators(parse_group_spec("dihedral(3)"))
    M = np.array([[1.0, 0.3], [-0.2, 1.1]])
    skew = [np.linalg.inv(M) @ g @ M for g in gens]
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({"field": "R", "generators": [g.tolist() for g in skew]}))
    g = build_group(f"explicit:{path}")
    assert g.order == 6
    assert g.unitarity_deviation() <= 1e-9
    for gen in g.generators:
        assert np.abs(gen.T @ gen - np.eye(2)).max() <= 1e-9
    seed = np.array([1.0, 0.0])
    images = {tuple(np.round(canonical_line(e @ seed), 8)) for e in g.elements}
    assert orbit_lines(g, seed).n_lines == len(images)


def test_unitarize_leaves_unitary_groups_alone():
    g = build_group("heis(3)")
    assert unitarize(g) is g


def test_size_limit():
    with pytest.raises(SizeLimitError):
        build_group("H4", max_order=100)


def test_catalog_covers_expected_families():
    labels = {str(e.spec) for e in catalog()}
    for needed in ["A(3)", "B(2)", "B(5)", "D(3)", "D(4)", "binT", "binO",
                   "binI", "H3", "H4", "heis(3)", "heis(4)", "dihedral(3)"]:
        assert needed in labels


def test_catalog_seed_orbit_sizes():
    for entry in catalog():
        g = build_group(entry.spec)
        sizes = tuple(len(orbit_lines(g, s).lines) for s in entry.seeds)
        assert sizes == tuple(entry.expected_lines), str(entry.spec)


def test_catalog_entry_lookup_accepts_aliases():
    assert catalog_entry("G(2,1,2)").spec == catalog_entry("B(2)").spec
    with pytest.raises(InputError):
        catalog_entry("rot(9)")


def test_catalog_named_seed_examples():
    b2 = catalog_entry("B(2)")
    assert [list(s) for s in b2.seeds] == [[1, 0], [1, 1]]
    h4 = catalog_entry("H4")
    assert tuple(h4.expected_lines[:2]) == (60, 300)
    heis = catalog_entry("heis(3)")
    assert tuple(heis.expected_lines) == (3, 9)


def test_explicit_generator_file(f4_path):
    g = build_group(f"explicit:{f4_path}")
    assert g.order == 1152
    assert g.dim == 4
    assert g.field == "R"
    assert g.unitarity_deviation() <= 1e-9
    sizes = sorted(
        len(orbit_lines(g, np.array(seed)).lines)
        for seed in [(1.0, 0, 0, 0), (1.0, -1, 0, 0), (2.0, 1, 1, 0), (3.0, 1, 1, 1)]
    )
    assert sizes == [12, 12, 48, 48]


def test_explicit_orbit_walk_stops_at_max_order(f4_path):
    # no closed-form order: a generic F4 orbit (576 lines) passes max_order=100
    g = build_group(f"explicit:{f4_path}", max_order=100)
    with pytest.raises(SizeLimitError):
        orbit_lines(g, np.array([4.0, 3.0, 2.0, 1.0]))


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        json.dumps({"generators": [[[1, 0], [0, 1]]]}),  # missing field
        json.dumps({"field": "Q", "generators": [[[1, 0], [0, 1]]]}),
        json.dumps({"field": "R", "generators": []}),
        json.dumps({"field": "R", "generators": [[[1, 0, 0], [0, 1, 0]]]}),
        json.dumps({"field": "R", "generators": [[[0, 0], [0, 0]]]}),  # singular
        json.dumps({"field": "R", "generators": [[[[0, 1], 0], [0, [0, 1]]]]}),
    ],
)
def test_explicit_loader_rejects_malformed_input(tmp_path, payload):
    path = tmp_path / "gens.json"
    path.write_text(payload)
    with pytest.raises(InputError):
        build_group(f"explicit:{path}")


def test_explicit_loader_missing_file():
    with pytest.raises(InputError):
        build_group("explicit:/nonexistent/gens.json")
