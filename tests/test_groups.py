"""Group construction: spec grammar, unitary generators, closure, catalog."""
from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from orbitdesigns import (
    ConsistencyError,
    FiniteMatrixGroup,
    InputError,
    SizeLimitError,
    build_group,
    catalog,
    catalog_entry,
    orbit_lines,
    parse_group_spec,
)
from orbitdesigns import groups
from orbitdesigns.groups import (
    H3_SIMPLE_ROOTS,
    H4_SIMPLE_ROOTS,
    _FAMILIES,
    _helmert_basis,
    build_generators,
)
from orbitdesigns.numerics import REL_EQ


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
        ("heis(2)", 8),  # Pauli X and Z: real, so no clock phase
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
        ("heis(2)", 2, "R"),
    ],
)
def test_dim_and_field(spec, dim, field):
    g = build_group(spec)
    assert g.dim == dim
    assert g.field == field


# each rejected spec with the message that names its fault
_SPEC_REJECTIONS = {
    "G(2,2,2)": "G(2,2,2) is reducible and not supported",
    "G(3,2,3)": "G(3,2,3): p must divide m",
    "G(3,3,1)": "G(3,3,1): n >= 2 required (degenerate family)",
    "G(-1,1,2)": "G(m,p,n) parameters must be positive",
    "G(2,1)": "G takes 3 parameter(s), got 2",
    "A(0)": "A(d) needs d >= 1",
    "B(1)": "B(d) needs d >= 2",
    "D(2)": "D(d) needs d >= 3 (D(2) is reducible)",
    "dihedral(2)": "dihedral(m) needs m >= 3 for irreducibility",
    "dihedral(2,3)": "dihedral takes 1 parameter(s), got 2",
    "rot(2)": "rot(m) needs m >= 3 for irreducibility",
    "binD(5)": "binD(k) needs even k >= 4",
    "binD(2)": "binD(k) needs even k >= 4",
    "heis(1)": "heis(d) needs d >= 2",
    "binT(3)": "binT takes 0 parameter(s), got 1",
    "binO(1)": "binO takes 0 parameter(s), got 1",
    "binI(1)": "binI takes 0 parameter(s), got 1",
    "H3(3)": "H3 takes 0 parameter(s), got 1",
    "H4(4)": "H4 takes 0 parameter(s), got 1",
    "Q8": "unknown group family 'Q8'",
    "B(": "cannot parse group spec 'B('",
    "": "cannot parse group spec ''",
    "explicit:": "explicit spec needs a file path",
    "binD(4,)": "cannot parse group spec 'binD(4,)'",
    "G(1--2,1,2)": "cannot parse group spec 'G(1--2,1,2)'",
    "rot(5 5)": "cannot parse group spec 'rot(5 5)'",
}


@pytest.mark.parametrize("bad", list(_SPEC_REJECTIONS))
def test_spec_grammar_rejections(bad):
    with pytest.raises(InputError, match=re.escape(_SPEC_REJECTIONS[bad])):
        build_group(bad)


def test_spec_labels_round_trip():
    for text in ["G(2,1,3)", "A(4)", "B(3)", "D(4)", "dihedral(5)", "binI", "H3"]:
        spec = parse_group_spec(text)
        assert parse_group_spec(str(spec)) == spec


def _elements_unitarity(g):
    # max |E*E - I| over every closed element: the closure's products stay unitary,
    # which the generator check at construction does not by itself show
    E = g.elements
    return np.abs(np.einsum("nji,njk->nik", E.conj(), E) - np.eye(g.dim)).max()


def test_unitarity_after_build():
    for spec in ["G(2,1,3)", "A(3)", "binO", "H3", "heis(3)", "dihedral(7)"]:
        assert _elements_unitarity(build_group(spec)) <= 1e-9


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


# one or two parameter choices per family head, real and complex G(m,p,n) among them
_FAMILY_SPECS = ["G(3,1,2)", "G(4,2,3)", "G(1,1,5)", "G(2,1,4)", "G(6,3,2)", "A(3)", "B(4)",
                 "D(4)", "dihedral(3)", "dihedral(10)", "rot(7)", "binD(4)", "binD(10)",
                 "binT", "binO", "binI", "H3", "H4", "heis(2)", "heis(5)"]


def test_the_family_specs_cover_every_family():
    assert {spec.split("(")[0] for spec in _FAMILY_SPECS} == _FAMILIES.keys()


@pytest.mark.parametrize("spec", _FAMILY_SPECS)
def test_every_family_has_unitary_generators(spec):
    # generators only, no closure: a family with an off generator is refused at
    # build, and one is refused by the dimension its row states before it is built
    g = build_group(spec)
    parsed = parse_group_spec(spec)
    assert len(g.unitarity_deviations) == len(build_generators(parsed))
    assert all(dev <= REL_EQ for dev in g.unitarity_deviations), g.unitarity_deviations
    assert _FAMILIES[parsed.kind].dim(*parsed.params) == g.dim


def test_explicit_non_unitary_generators_are_refused(tmp_path):
    # skewed dihedral(3) generators: a finite group, but not unitary, so the
    # file is refused when the group is built and nothing is closed
    M = np.array([[1.0, 0.3], [-0.2, 1.1]])
    skew = [np.linalg.inv(M) @ g @ M for g in build_generators(parse_group_spec("dihedral(3)"))]
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({"field": "R", "generators": [g.tolist() for g in skew]}))
    with pytest.raises(InputError, match=re.escape(
            f"generators of explicit:{path} must be unitary: "
            "generator 1 deviates from unitary by 2.014e-01")):
        build_group(f"explicit:{path}")


def test_unitarity_deviation_propagates_nan():
    # a nan deviation must not pass as unitary (nan <= REL_EQ is False); a g*g
    # that overflows reads inf, and inf - inf in it nan (or inf, when BLAS fuses
    # the multiply-add), with no RuntimeWarning (the suite turns those into errors)
    spec = parse_group_spec("explicit:nan.json")
    for gen, dev in [(np.full((2, 2), np.nan), "nan"),
                     (np.array([[1e200, 0.0], [0.0, 1.0]]), "inf"),
                     (np.array([[1e200, 1e200], [1e200, -1e200]]), "(inf|nan)")]:
        with pytest.raises(InputError, match=re.escape(
                "generators of explicit:nan.json must be unitary: "
                "generator 2 deviates from unitary by ") + f"{dev}$"):
            FiniteMatrixGroup(spec, (np.eye(2), gen))


def test_closure_of_overflowing_generators_is_refused():
    # a group made directly from a generator that is not unitary is refused
    # when it is made, as build_group refuses one, so no product can overflow
    spec = parse_group_spec("explicit:overflow.json")
    with pytest.raises(InputError, match=re.escape(
            "generators of explicit:overflow.json must be unitary: "
            "generator 1 deviates from unitary by inf")):
        FiniteMatrixGroup(spec, (np.array([[1.0, 1e308], [0.0, 1.0]]),))


def test_a_group_without_generators_is_refused():
    with pytest.raises(InputError, match="^no generators$"):
        FiniteMatrixGroup(parse_group_spec("binT"), ())


@pytest.mark.parametrize("gens,message", [
    ((np.zeros((2, 3)),), "generators must be square matrices"),
    ((np.eye(2)[None],), "generators must be square matrices"),
    ((np.eye(2), np.eye(3)), "generators must share one dimension"),
])
def test_a_group_of_malformed_shapes_is_refused(gens, message):
    # the group judges its generators' shapes itself, before numpy stacks them
    with pytest.raises(InputError, match=f"^{message}$"):
        FiniteMatrixGroup(parse_group_spec("explicit:shapes.json"), gens)


def test_generators_are_held_as_one_array_of_one_dtype():
    spec = parse_group_spec("explicit:mixed.json")
    g = FiniteMatrixGroup(spec, [np.eye(2), np.diag([1j, -1j])])
    assert g.field == "C"
    assert g.generators.dtype == np.complex128 and g.generators.shape == (2, 2, 2)
    # integer matrices are held as float64, so a seed cast to their dtype keeps its value
    g = FiniteMatrixGroup(spec, [np.array([[0, 1], [1, 0]])])
    assert g.field == "R" and g.generators.dtype == np.float64
    assert np.array_equal(g.embed_seed(np.array([0.5, 0.25])), [0.5, 0.25])


def test_the_order_of_an_explicit_group_closes_nothing(f4_path, closures):
    g = build_group(f"explicit:{f4_path}")
    assert g.order is None
    assert closures == []
    assert len(g.elements) == 1152 and closures == [g.spec]


def test_size_limit(max_order):
    # building checks no size; the closure that would pass max_order does
    max_order(100)
    g = build_group("H4")
    with pytest.raises(SizeLimitError, match=re.escape("closure of H4 exceeds max_order=100")):
        g.elements


def _imprimitive_roots(m, p, n):
    """(root, zeta) of each generator of G(m,p,n), in the order built."""
    omega = np.exp(2j * np.pi / m)
    e = np.eye(n)
    roots = [(e[i] - e[i + 1], -1) for i in range(n - 1)]
    if p < m:
        roots.append((e[0], omega ** p))
    if p > 1:
        roots.append((e[0] - omega * e[1], -1))
    if m == 1:
        roots = [(_helmert_basis(n).T @ r, zeta) for r, zeta in roots]
    return roots


_REFLECTION_GROUPS = {
    **{f"G({m},{p},{n})": _imprimitive_roots(m, p, n)
       for m in range(1, 7) for p in range(1, m + 1) for n in range(2, 5)
       if m % p == 0 and (m, p, n) != (2, 2, 2)},
    "H3": [(r, -1) for r in H3_SIMPLE_ROOTS],
    "H4": [(r, -1) for r in H4_SIMPLE_ROOTS],
}


@pytest.mark.parametrize("spec", list(_REFLECTION_GROUPS))
def test_generators_are_reflections_in_their_roots(spec):
    gens = build_generators(parse_group_spec(spec))
    roots = _REFLECTION_GROUPS[spec]
    assert len(gens) == len(roots)
    for g, (r, zeta) in zip(gens, roots):
        assert np.linalg.matrix_rank(g - np.eye(len(g)), tol=1e-9) == 1
        assert np.abs(g @ r - zeta * r).max() <= 1e-12


@pytest.mark.parametrize("m,p,n", [(1, 1, 4), (2, 1, 3), (2, 2, 4), (3, 1, 3), (4, 4, 2)])
def test_transpositions_are_exact_permutations(m, p, n):
    gens = build_generators(parse_group_spec(f"G({m},{p},{n})"))
    for i in range(n - 1):
        perm = np.eye(n)[[*range(i), i + 1, i, *range(i + 2, n)]]
        if m == 1:  # projected onto the sum-zero hyperplane
            B = _helmert_basis(n)
            perm = B.T @ perm @ B
        assert np.array_equal(gens[i], perm)


def test_real_reflections_are_bit_exact():
    for spec, roots in (("H3", H3_SIMPLE_ROOTS), ("H4", H4_SIMPLE_ROOTS)):
        gens = build_generators(parse_group_spec(spec))
        assert all(g.dtype == np.float64 for g in gens)
        for g, r in zip(gens, roots):
            assert np.array_equal(g, np.eye(len(r)) - 2.0 * np.outer(r, r))


def test_explicit_complex_field_with_real_entries(tmp_path):
    # the field is the generators' dtype: "C" stores real entries as complex
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"field": "C", "generators": [[[0, 1], [1, 0]], [[1, 0], [0, -1]]]}))
    g = build_group(f"explicit:{path}")
    assert g.field == "C"
    assert all(gen.dtype == np.complex128 for gen in g.generators)
    assert len(g.elements) == 8
    assert orbit_lines(g, np.array([1.0, 0.0])).field == "C"


def test_family_too_large_to_build_is_refused():
    # only a family whose squared dimension passes max_order
    with pytest.raises(SizeLimitError, match="its dimension 500 squared"):
        build_group("heis(500)")
    assert build_group("heis(60)").dim == 60  # order 216000, dimension 60


def test_closure_key_collision(dedup_digits):
    dedup_digits(1)
    spec = parse_group_spec("rot(100)")
    gens = build_generators(spec)
    with pytest.raises(ConsistencyError, match=re.escape(
            "do not permute the 2 elements found: dedup keys at 1 digits")):
        FiniteMatrixGroup(spec, tuple(gens)).elements


def test_closure_that_ends_short_of_its_order(monkeypatch):
    # binT given order 48: the closure of its generators ends at 24
    monkeypatch.setitem(_FAMILIES, "binT", dataclasses.replace(_FAMILIES["binT"],
                                                               order=lambda: 48))
    spec = parse_group_spec("binT")
    with pytest.raises(ConsistencyError,
                       match=re.escape("closure of binT ends at 24 of its 48 elements")):
        FiniteMatrixGroup(spec, tuple(build_generators(spec))).elements


def test_walk_batches_move_no_row(monkeypatch):
    # a round steps its frontier a batch of generators at a time, in generator
    # order: one generator per batch finds the rows that one batch per round
    # finds, bit for bit, on every catalog orbit and catalog closure
    def rows_found():
        out = []
        for entry in catalog():
            g = build_group(entry.spec)
            if g.order <= 20_000:
                out.append(FiniteMatrixGroup(g.spec, g.generators).elements)
            out += [orbit_lines(g, seed).lines for seed in entry.seeds]
        return out

    default = rows_found()
    monkeypatch.setattr(groups, "_STEP_BYTES", 1)
    one_by_one = rows_found()
    assert len(default) == len(one_by_one) == 82
    for a, b in zip(default, one_by_one):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_catalog_covers_expected_families():
    labels = {str(e.spec) for e in catalog()}
    for needed in ["A(3)", "B(2)", "B(5)", "D(3)", "D(4)", "binT", "binO",
                   "binI", "H3", "H4", "heis(3)", "heis(4)", "dihedral(3)"]:
        assert needed in labels


# the orbit line count of each catalog seed, in catalog order
_CATALOG_ORBIT_SIZES = {
    "A(3)": (3, 4), "A(4)": (5, 10), "A(5)": (6, 10, 15),
    "B(2)": (2, 2), "B(3)": (3, 6, 4), "B(4)": (4, 12, 16, 8), "B(5)": (5, 20, 40, 40, 16),
    "D(3)": (3, 6, 4), "D(4)": (4, 12, 16, 4),
    "dihedral(3)": (3, 6), "dihedral(4)": (2, 4), "dihedral(5)": (5, 10),
    "binD(4)": (4,), "binD(6)": (6,), "binD(8)": (8,),
    "binT": (4, 4, 6, 12), "binO": (6, 8, 12, 24), "binI": (12, 20, 30, 60),
    "H3": (6, 10, 15), "H4": (60, 300, 360, 600), "heis(3)": (3, 9), "heis(4)": (4, 16),
}


def test_catalog_seed_orbit_sizes():
    assert [str(entry.spec) for entry in catalog()] == list(_CATALOG_ORBIT_SIZES)
    for entry in catalog():
        g = build_group(entry.spec)
        sizes = tuple(len(orbit_lines(g, s).lines) for s in entry.seeds)
        assert sizes == _CATALOG_ORBIT_SIZES[str(entry.spec)], str(entry.spec)


def test_the_cached_catalog_cannot_be_corrupted():
    # the catalog is built once per process and shared by every caller
    with pytest.raises(ValueError, match="read-only"):
        catalog_entry("H4").seeds[0][0] = 0.0
    assert isinstance(catalog(), tuple) and catalog() is catalog()
    with pytest.raises(AttributeError):
        catalog().append(catalog_entry("H4"))
    assert len(catalog()) == 22
    assert catalog_entry("binI") is catalog_entry("binI")


def test_catalog_entry_lookup_accepts_aliases():
    assert catalog_entry("G(2,1,2)").spec == catalog_entry("B(2)").spec
    with pytest.raises(InputError):
        catalog_entry("rot(9)")


def test_catalog_named_seed_examples():
    b2 = catalog_entry("B(2)")
    assert [list(s) for s in b2.seeds] == [[1, 0], [1, 1]]
    assert _CATALOG_ORBIT_SIZES["H4"][:2] == (60, 300)
    assert len(catalog_entry("heis(3)").seeds) == len(_CATALOG_ORBIT_SIZES["heis(3)"]) == 2


def test_explicit_generator_file(f4_path):
    g = build_group(f"explicit:{f4_path}")
    assert len(g.elements) == 1152
    assert g.dim == 4
    assert g.field == "R"
    assert _elements_unitarity(g) <= 1e-9
    sizes = sorted(
        len(orbit_lines(g, np.array(seed)).lines)
        for seed in [(1.0, 0, 0, 0), (1.0, -1, 0, 0), (2.0, 1, 1, 0), (3.0, 1, 1, 1)]
    )
    assert sizes == [12, 12, 48, 48]


def test_explicit_orbit_walk_stops_at_max_order(f4_path, max_order):
    # no closed-form order: a generic F4 orbit (576 lines) passes max_order=100
    max_order(100)
    g = build_group(f"explicit:{f4_path}")
    with pytest.raises(SizeLimitError):
        orbit_lines(g, np.array([4.0, 3.0, 2.0, 1.0]))


# each rejected generator file with the message that names its fault
_EXPLICIT_REJECTIONS = {
    "not json": "generator file is not valid JSON",
    json.dumps({"generators": [[[1, 0], [0, 1]]]}): "needs 'field' and 'generators' keys",
    json.dumps({"field": "Q", "generators": [[[1, 0], [0, 1]]]}): "field must be 'R' or 'C'",
    json.dumps({"field": "R", "generators": []}): "no generators",
    json.dumps({"field": "R", "generators": [[[1, 0, 0], [0, 1, 0]]]}): "must be square",
    json.dumps({"field": "R", "generators": [[[1]], [[1, 0], [0, 1]]]}):
        "generators must share one dimension",
    json.dumps({"field": "R", "generators": [[[0, 0], [0, 0]]]}):
        "must be unitary: generator 1 deviates from unitary by 1.000e+00",
    json.dumps({"field": "R", "generators": [[[[0, 1], 0], [0, [0, 1]]]]}):
        "field 'R' but generators have imaginary parts",
    # json reads 1e400 as inf and NaN as nan; a nan imaginary part is not dropped,
    # in the first generator or a later one
    '{"field": "R", "generators": [[[1e400, 0], [0, 1]]]}':
        "must be unitary: generator 1 deviates from unitary by nan",
    '{"field": "R", "generators": [[[NaN, 0], [0, 1]]]}':
        "must be unitary: generator 1 deviates from unitary by nan",
    '{"field": "R", "generators": [[[[1, NaN], 0], [0, 1]]]}':
        "field 'R' but generators have imaginary parts",
    '{"field": "R", "generators": [[[1, 0], [0, 1]], [[[1, NaN], 0], [0, 1]]]}':
        "field 'R' but generators have imaginary parts",
    json.dumps({"field": "R", "generators": [[]]}): "generators must be square matrices",
    # finite, but not unitary; M*M overflows to an inf deviation
    json.dumps({"field": "R", "generators": [[[1e200, 0], [0, 1]]]}):
        "must be unitary: generator 1 deviates from unitary by inf",
    json.dumps({"field": "R", "generators": [[[2, 0], [0, 1]]]}):
        "must be unitary: generator 1 deviates from unitary by 3.000e+00",
    json.dumps({"field": "R", "generators": [[[1, 0], [0, 1]], [[1.001, 0], [0, 1]]]}):
        "must be unitary: generator 2 deviates from unitary by 2.001e-03",
    # |det| = 1 does not make a matrix unitary
    json.dumps({"field": "R", "generators": [[[2, 0], [0, 0.5]]]}):
        "must be unitary: generator 1 deviates from unitary by 3.000e+00",
    json.dumps({"field": "R", "generators": [[[1e200, 0], [0, 1e-200]]]}):
        "must be unitary: generator 1 deviates from unitary by inf",
    # unit eigenvalues, but not unitary: refused before its powers overflow
    json.dumps({"field": "R", "generators": [[[1, 1e308], [0, 1]]]}):
        "must be unitary: generator 1 deviates from unitary by inf",
    json.dumps({"field": "R", "generators": [[[["a", 0], 0], [0, 1]]]}): "malformed generator entry",
    json.dumps({"field": "R", "generators": [[[1, 0], [0]]]}): "malformed generator entry",
    # JSON booleans are not numbers, and a complex entry is exactly [re, im]
    json.dumps({"field": "R", "generators": [[[False, True], [True, False]]]}):
        "malformed generator entry",
    json.dumps({"field": "C", "generators": [[[[True, 0], 0], [0, 1]]]}):
        "malformed generator entry",
    json.dumps({"field": "C", "generators": [[[[1, 0, 0], 0], [0, 1]]]}):
        "malformed generator entry",
}


@pytest.mark.parametrize("payload", list(_EXPLICIT_REJECTIONS))
def test_explicit_loader_rejects_malformed_input(tmp_path, payload):
    path = tmp_path / "gens.json"
    path.write_text(payload)
    with pytest.raises(InputError, match=re.escape(_EXPLICIT_REJECTIONS[payload])):
        build_group(f"explicit:{path}")


def test_explicit_loader_missing_file():
    with pytest.raises(InputError):
        build_group("explicit:/nonexistent/gens.json")


def test_seed_basis_follows_the_spec():
    # only the sum-zero model of G(1,1,n) embeds seeds given in ambient coordinates
    assert np.array_equal(build_group("A(4)").seed_basis, _helmert_basis(5))
    assert build_group("B(3)").seed_basis is None
