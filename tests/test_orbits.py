"""Projective lines: canonicalization, orbits, unions, vector literals."""
from __future__ import annotations

import dataclasses
import functools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdesigns import (
    ConsistencyError,
    InputError,
    LineSet,
    MismatchError,
    build_group,
    catalog,
    catalog_entry,
    format_vector,
    group_order,
    orbit_lines,
    parse_vector,
    union_lines,
)
from orbitdesigns import groups, numerics
from orbitdesigns.numerics import REL_EQ
from orbitdesigns.orbits import _canonicalize_rows


def _canonical(v):
    """The canonical representative of the line through one vector."""
    return _canonicalize_rows(np.asarray(v)[None])[0]


def test_canonical_line_sign():
    assert np.allclose(_canonical(np.array([0.0, -2.0])), [0.0, 1.0])


def test_canonical_line_phase():
    v = np.array([1j, 1.0]) / np.sqrt(2.0)
    got = _canonical(v)
    want = np.array([1.0, -1j]) / np.sqrt(2.0)
    assert np.allclose(got, want)


_unit_entries = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(st.lists(st.tuples(_unit_entries, _unit_entries), min_size=2, max_size=5))
@settings(max_examples=150)
def test_canonical_line_idempotent(entries):
    v = np.array([complex(a, b) for a, b in entries])
    if np.linalg.norm(v) < 1e-3:
        return
    once = _canonical(v)
    twice = _canonical(once)
    assert np.allclose(once, twice, atol=1e-12)
    assert abs(np.linalg.norm(once) - 1.0) < 1e-12


@given(st.lists(_unit_entries, min_size=2, max_size=5), _unit_entries)
@settings(max_examples=150)
def test_canonical_line_kills_scaling(entries, scale):
    v = np.array(entries)
    if np.linalg.norm(v) < 1e-3 or abs(scale) < 1e-3:
        return
    assert np.allclose(_canonical(v), _canonical(scale * v), atol=1e-9)


def test_orbit_sizes_match_stabilizer_index():
    assert orbit_lines(build_group("G(2,1,2)"), np.array([1.0, 0.0])).n_lines == 2
    assert orbit_lines(build_group("G(2,1,4)"), np.ones(4)).n_lines == 8
    generic = orbit_lines(build_group("binI"), np.array([3.0 + 1.0j, 1.0]))
    assert generic.n_lines == 60


def _closure_images(group, seed):
    """Canonical images of the seed under every enumerated group element."""
    x = group.embed_seed(np.asarray(seed))
    return _canonicalize_rows(group.elements @ x)


def test_orbit_walk_matches_closure_images():
    for entry in catalog():
        g = build_group(entry.spec)
        for seed in entry.seeds:
            X = orbit_lines(g, seed)
            images = _closure_images(g, seed)
            nearest = []
            for start in range(0, len(images), 512):
                block = images[start:start + 512]
                dist = np.abs(block[:, None, :] - X.lines[None]).max(axis=2)
                assert dist.min(axis=1).max() <= 1e-12, str(entry.spec)
                nearest += dist.argmin(axis=1).tolist()
            assert set(nearest) == set(range(X.n_lines)), str(entry.spec)
            assert group_order(entry.spec) % X.n_lines == 0, str(entry.spec)


def test_h4_orbits_never_close_the_group(closures):
    g = build_group("H4")
    sizes = [orbit_lines(g, seed).n_lines for seed in catalog_entry("H4").seeds]
    assert sizes == [60, 300, 360, 600]
    assert g.order == 14400
    assert closures == []


def test_orbit_walk_rejects_merged_keys(dedup_digits):
    # at 1 digit distinct lines of this A(4) orbit share keys, so the lines
    # the walk keeps are not permuted by the generators
    dedup_digits(1)
    g = build_group("A(4)")
    with pytest.raises(ConsistencyError, match="do not permute"):
        orbit_lines(g, catalog_entry("A(4)").seeds[0])


def test_orbit_size_must_divide_the_group_order(monkeypatch):
    order = groups.group_order
    monkeypatch.setattr(groups, "group_order",
                        lambda spec: 14399 if spec.kind == "H4" else order(spec))
    with pytest.raises(ConsistencyError, match="has 60 lines, which does not divide the "
                                               "group order 14399"):
        orbit_lines(build_group("H4"), catalog_entry("H4").seeds[0])


def test_real_group_drops_tiny_imaginary_parts_of_a_seed():
    # imaginary parts of at most 1e-12 in the scaled seed are dropped; a cast to
    # float would raise ComplexWarning, a RuntimeWarning, which the suite makes an error
    g = build_group("B(3)")
    dusty = orbit_lines(g, parse_vector("1,1e-13i,0"))
    assert np.array_equal(dusty.lines, orbit_lines(g, parse_vector("1,0,0")).lines)


def test_orbit_weights_are_uniform_rationals():
    X = orbit_lines(build_group("dihedral(5)"), np.array([1.0, 0.3]))
    assert X.exact_weights == (Fraction(1, X.n_lines),) * X.n_lines
    assert np.allclose(X.weights, 1.0 / X.n_lines)


def test_orbit_rejects_zero_seed():
    with pytest.raises(InputError):
        orbit_lines(build_group("B(2)"), np.zeros(2))


@pytest.mark.parametrize("label", ["A(3)", "B(3)", "binT", "H3", "heis(3)"])
def test_orbit_lineset_invariants(label):
    g = build_group(label)
    for seed in catalog_entry(label).seeds:
        X = orbit_lines(g, np.asarray(seed))
        norms = np.linalg.norm(X.lines, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-9
        gram = np.abs(X.lines @ X.lines.conj().T)
        np.fill_diagonal(gram, 0.0)
        if gram.size:
            assert 1.0 - gram.max() > 1e-9
        assert sum(X.exact_weights) == 1


def test_union_identity_weighting():
    X = orbit_lines(build_group("B(2)"), np.array([1.0, 0.0]))
    U = union_lines(X, orbit_lines(build_group("B(2)"), np.array([1.0, 1.0])),
                    (Fraction(1), Fraction(0)))
    assert U.n_lines == X.n_lines
    assert U.exact_weights == X.exact_weights
    assert U.group is None


def test_union_merges_identical_sets():
    X = orbit_lines(build_group("B(2)"), np.array([1.0, 0.0]))
    U = union_lines(X, X, (Fraction(1, 2), Fraction(1, 2)))
    assert U.n_lines == X.n_lines
    assert U.exact_weights == X.exact_weights
    assert U.group is None and np.array_equal(U.lines, X.lines)


def test_union_four_line_cross():
    g = build_group("G(2,1,2)")
    X = orbit_lines(g, np.array([1.0, 0.0]))
    Y = orbit_lines(g, np.array([1.0, 1.0]))
    U = union_lines(X, Y, (Fraction(1, 2), Fraction(1, 2)))
    assert U.n_lines == 4
    assert U.exact_weights == (Fraction(1, 4),) * 4
    assert U.group is None


def test_union_of_a_two_orbit_union_drops_the_group():
    # a union is a plain line set, summed in full, and so is its union with
    # an orbit
    g = build_group("G(2,1,2)")
    X = orbit_lines(g, np.array([1.0, 0.0]))
    Y = orbit_lines(g, np.array([1.0, 1.0]))
    U = union_lines(X, Y, (Fraction(1, 2), Fraction(1, 2)))
    W = union_lines(U, X, (Fraction(1, 2), Fraction(1, 2)))
    assert W.group is None
    assert W.exact_weights == (Fraction(3, 8),) * 2 + (Fraction(1, 8),) * 2


def test_union_of_a_float_only_set_sums_exact_fractions():
    # a set weighted by floats holds the exact Fraction of each, and the
    # union sums those Fractions exactly
    g = build_group("H3")
    X = orbit_lines(g, catalog_entry("H3").seeds[1])
    Y = orbit_lines(g, catalog_entry("H3").seeds[0])
    w = np.linspace(1.0, 2.0, X.n_lines)
    F = LineSet(lines=X.lines, exact_weights=tuple(map(Fraction, (w / w.sum()).tolist())))
    bx, by = Fraction(1, 3), Fraction(2, 3)
    floats = [bx * Fraction(x) for x in F.weights.tolist()]
    disjoint = floats + [by * x for x in Y.exact_weights]
    # X shares F's lines, so its weights merge onto F's rows
    merged = [a + by * b for a, b in zip(floats, X.exact_weights)]
    for other, expected in ((Y, disjoint), (X, merged)):
        U = union_lines(F, other, (bx, by))
        assert all(type(x) is Fraction for x in U.exact_weights)
        assert list(U.exact_weights) == expected
        assert U.weights.tolist() == [float(x) for x in expected]


def test_union_rejects_a_partial_orbit_merge():
    # one line of Y's orbit coincides with a line of X, the other not:
    # two orbits of one group are never related so, only a key merge does it
    g = build_group("G(2,1,2)")
    X = orbit_lines(g, np.array([1.0, 0.0]))
    Y = orbit_lines(g, np.array([1.0, 1.0]))
    half = dataclasses.replace(Y, lines=np.stack([X.lines[0], Y.lines[1]]))
    with pytest.raises(ConsistencyError, match="merge only in part"):
        union_lines(X, half, (Fraction(1, 2), Fraction(1, 2)))
    # two lines of one orbit on one union row
    twice = dataclasses.replace(Y, lines=np.stack([Y.lines[0], Y.lines[0]]))
    with pytest.raises(ConsistencyError, match="merge only in part"):
        union_lines(X, twice, (Fraction(1, 2), Fraction(1, 2)))
    plain = dataclasses.replace(half, group=None)
    assert union_lines(X, plain, (Fraction(1, 2), Fraction(1, 2))).group is None


def test_groups_and_line_sets_compare_by_identity(max_order):
    # generators are arrays, so field-wise == would raise on their truth value
    g = build_group("B(2)")
    max_order(1000)  # drops the cached group, so B(2) is built again
    h = build_group("B(2)")
    X, Y = (orbit_lines(g, np.array([1.0, 0.0])) for _ in range(2))
    for a, b in ((g, h), (X, Y)):
        assert a == a and a != b
        assert len({a, b, a}) == 2


def test_union_signed_weighting():
    g = build_group("D(3)")
    X = orbit_lines(g, np.array([1.0, 1.0, 1.0]))
    Y = orbit_lines(g, np.array([1.0, 1.0, 0.0]))
    U = union_lines(X, Y, (Fraction(-3, 5), Fraction(8, 5)))
    assert U.signed
    assert sum(U.exact_weights) == 1
    assert min(U.exact_weights) < 0


def test_union_requires_affine_weighting():
    X = orbit_lines(build_group("B(2)"), np.array([1.0, 0.0]))
    with pytest.raises(InputError):
        union_lines(X, X, (Fraction(1, 2), Fraction(1, 3)))


def test_union_dimension_mismatch():
    X = orbit_lines(build_group("B(2)"), np.array([1.0, 0.0]))
    Y = orbit_lines(build_group("B(3)"), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(MismatchError):
        union_lines(X, Y, (Fraction(1, 2), Fraction(1, 2)))


def test_union_field_mismatch():
    X = orbit_lines(build_group("dihedral(3)"), np.array([1.0, 0.0]))
    Y = orbit_lines(build_group("binD(4)"), np.array([1.0, 0.0]))
    with pytest.raises(MismatchError):
        union_lines(X, Y, (Fraction(1, 2), Fraction(1, 2)))


def test_validate_catches_bad_weights():
    X = orbit_lines(build_group("B(2)"), np.array([1.0, 0.0]))
    broken = type(X)(lines=X.lines, exact_weights=tuple(2 * w for w in X.exact_weights))
    with pytest.raises(ConsistencyError):
        broken.validate()


def test_validate_catches_lines_of_other_norms():
    broken = LineSet(np.array([[2.0, 0.0], [0.0, 1.0]]), (Fraction(1, 2),) * 2)
    with pytest.raises(ConsistencyError, match="line representatives must have unit norm"):
        broken.validate()


@pytest.mark.parametrize("angle,coincide", [(1e-5, False), (1e-7, False), (1e-12, True)])
def test_validate_judges_close_lines_by_their_distance(angle, coincide):
    # 1 - |<a,b>| is about angle^2/2, within REL_EQ for all three; the lines
    # coincide only when they are within the dedup grid, 1e-8, of each other
    lines = np.array([[1.0, 0.0], [np.cos(angle), np.sin(angle)]])
    X = LineSet(lines=lines, exact_weights=(Fraction(1, 2),) * 2)
    if coincide:
        with pytest.raises(ConsistencyError, match="coincide projectively"):
            X.validate()
    else:
        X.validate()


def test_validate_catches_repeated_lines():
    X = orbit_lines(build_group("B(2)"), np.array([1.0, 0.0]))
    H = orbit_lines(build_group("H4"), catalog_entry("H4").seeds[3])
    C = orbit_lines(build_group("binT"), catalog_entry("binT").seeds[0])
    K = orbit_lines(build_group("G(4,1,3)"), np.array([1.0, 2.0, 3.0]))
    assert K.field == "C"
    cases = [
        np.vstack([X.lines, -X.lines[:1]]),  # -x spans the line of x
        np.vstack([H.lines, H.lines[-1:]]),  # adjacent rows
        np.vstack([H.lines, H.lines[:1]]),  # the first and the last row
        np.vstack([C.lines, np.exp(0.7j) * C.lines[2:3]]),  # a phase
        np.vstack([K.lines, 1j * K.lines[-1:]]),  # adjacent complex rows
        np.vstack([K.lines, np.exp(-2.1j) * K.lines[:1]]),  # the first and the last row
    ]
    for lines in cases:
        n = len(lines)
        repeated = LineSet(lines=lines, exact_weights=(Fraction(1, n),) * n)
        with pytest.raises(ConsistencyError, match="coincide projectively"):
            repeated.validate()


def test_validate_catches_a_nan_line():
    broken = LineSet(np.array([[np.nan, 0.0], [0.0, 1.0]]), (Fraction(1, 2),) * 2)
    with pytest.raises(ConsistencyError, match="unit norm"):
        broken.validate()


def _cell(line):
    """The cell of q(x) = |<x,v>|^2 that validate files a line under, for its
    probe v_k ~ e^{ik} sqrt(k), or the real part for a real line."""
    k = np.arange(1, len(line) + 1)
    probe = np.sqrt(k) * (np.exp(1j * k) if np.iscomplexobj(line) else np.cos(k))
    q = abs(line @ (probe / np.linalg.norm(probe))) ** 2
    return int(q // (3.0 * 10.0 ** -numerics.DEDUP_DIGITS))


@pytest.mark.parametrize("phase", [1.0, np.exp(0.3j)])
def test_validate_compares_lines_across_adjacent_cells(phase):
    # lines 0.99e-8 apart coincide; as the pair turns through the plane, q
    # moves by up to 0.99e-8 between them, so some pairs straddle two cells
    split = 0
    for alpha in np.linspace(0.0, np.pi, 64):
        a = phase * np.array([np.cos(alpha), np.sin(alpha)])
        b = phase * np.array([np.cos(alpha + 0.99e-8), np.sin(alpha + 0.99e-8)])
        split += abs(_cell(a) - _cell(b)) == 1
        with pytest.raises(ConsistencyError, match="coincide projectively"):
            LineSet(np.array([a, b]), (Fraction(1, 2),) * 2).validate()
    assert split > 0


@functools.cache
def _catalog_orbits():
    return tuple(orbit_lines(build_group(e.spec), s) for e in catalog() for s in e.seeds)


def _coincide_pairwise(lines):
    """validate's rule applied to every pair of rows i < j: a = lines[i] is
    within the dedup grid of phi*b, b = lines[j], phi = <b,a>/|<b,a>|. Pairs
    with |<b,a>| <= 1/2, at least 1 apart, are skipped."""
    grid = 10.0 ** -numerics.DEDUP_DIGITS
    gram = np.abs(lines @ lines.conj().T)
    for i, j in zip(*np.nonzero(np.triu(gram > 0.5, 1))):
        a, b = lines[i], lines[j]
        dot = np.vdot(b, a)
        if 1.0 - abs(dot) <= REL_EQ and np.linalg.norm(a - dot / abs(dot) * b) <= grid:
            return True
    return False


def _across_edge(x, distance, share):
    """x turned to two lines 'distance' apart that straddle the cell edge
    nearest its q(x) = |x @ v|^2: 'share' of the distance on x's side.

    In the plane of x and u, the unit vector orthogonal to x along which q
    turns fastest, the line cos(s) x + sin(s) u has q = cos^2(s0 - s) exactly,
    so the edge sits at a known angle s.
    """
    k = np.arange(1, len(x) + 1)
    probe = np.sqrt(k) * (np.exp(1j * k) if np.iscomplexobj(x) else np.cos(k))
    w = (probe / np.linalg.norm(probe)).conj()  # q(y) = |<w, y>|^2
    a = np.vdot(w, x)
    u = w - np.vdot(x, w) * x
    s0 = np.arctan2(np.linalg.norm(u), abs(a))
    u *= a / abs(a) / np.linalg.norm(u)
    cell = 3.0 * 10.0 ** -numerics.DEDUP_DIGITS
    edge = cell * max(1, round(abs(a) ** 2 / cell))  # q = 0 is no edge
    at_edge = s0 - np.arccos(np.sqrt(edge))
    side = 1.0 if abs(a) ** 2 > edge else -1.0
    return tuple(np.cos(s) * x + np.sin(s) * u
                 for s in (at_edge + side * share * distance,
                           at_edge - side * (1.0 - share) * distance))


@given(st.data(), st.floats(min_value=-12.0, max_value=-6.5), st.floats(0.0, 2.0 * np.pi))
@settings(max_examples=120, deadline=None)
def test_validate_agrees_with_every_pair_compared(data, log_distance, angle):
    # a catalog orbit and one line of it turned by 10^log_distance, in a
    # random direction, times a random sign or phase, inserted at a random row;
    # or, across a cell edge, that line and its copy turned to straddle the
    # edge nearest its probe value q, 10^log_distance apart
    X = data.draw(st.sampled_from(_catalog_orbits()))
    row = data.draw(st.integers(0, X.n_lines - 1))
    at = data.draw(st.integers(0, X.n_lines))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    turn = np.exp(1j * angle) if X.field == "C" else (1.0 if angle < np.pi else -1.0)
    lines = X.lines.copy()
    x = lines[row]
    if data.draw(st.booleans()):
        lines[row], moved = _across_edge(x, 10.0**log_distance, data.draw(st.floats(0.0, 1.0)))
    else:
        u = rng.standard_normal(X.dim) + (1j * rng.standard_normal(X.dim) if X.field == "C" else 0)
        u -= np.vdot(x, u) * x
        u /= np.linalg.norm(u)
        moved = np.cos(10.0**log_distance) * x + np.sin(10.0**log_distance) * u
    lines = np.insert(lines, at, turn * moved, axis=0)
    n = len(lines)
    ls = LineSet(lines=lines, exact_weights=(Fraction(1, n),) * n)
    if _coincide_pairwise(lines):
        with pytest.raises(ConsistencyError, match="coincide projectively"):
            ls.validate()
    else:
        ls.validate()


def test_validate_holds_no_gram_matrix():
    g = build_group("H4")
    X, Y = (orbit_lines(g, seed) for seed in catalog_entry("H4").seeds[1:3])
    U = union_lines(X, Y, (Fraction(1, 2), Fraction(1, 2)))
    assert U.n_lines == 660
    tracemalloc.start()
    try:
        U.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18  # the 660 x 660 Gram alone takes 3.3 MiB


def test_orbit_path_does_not_import_numpy_ma():
    # np.unique without index outputs imports numpy.ma, 12-20 ms at first use
    code = (
        "import sys\n"
        "from orbitdesigns import build_group, catalog_entry, orbit_lines, solve_union\n"
        "g = build_group('H4')\n"
        "X, Y = (orbit_lines(g, s) for s in catalog_entry('H4').seeds[:2])\n"
        "assert solve_union(X, Y, 6).root.beta is not None\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_orbit_path_does_not_sort():
    # the walk, the permutation check and the union read their answers from
    # the intern passes; numpy's sort kernels would add to the peak RSS
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import numpy as np\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('the orbit path sorted')\n"
        "for name in ('unique', 'sort', 'argsort', 'lexsort'):\n"
        "    setattr(np, name, refuse)\n"
        "from orbitdesigns import build_group, catalog_entry, orbit_lines, union_lines\n"
        "from orbitdesigns.cli import main\n"
        "for label in ('binI', 'H4'):\n"
        "    g = build_group(label)\n"
        "    X = [orbit_lines(g, s) for s in catalog_entry(label).seeds]\n"
        "assert union_lines(X[0], X[3], (Fraction(1, 2), Fraction(1, 2))).n_lines == 660\n"
        "assert len(build_group('binI').elements) == 120\n"
        "assert main(['reproduce', 'all']) == 0\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_parse_vector_real_and_fractional():
    assert np.allclose(parse_vector("1, -2, 1/2"), [1.0, -2.0, 0.5])
    assert not np.iscomplexobj(parse_vector("3,0"))


def test_parse_vector_complex_forms():
    got = parse_vector("1+2i, -i, 0.5-1/2j")
    assert np.allclose(got, [1 + 2j, -1j, 0.5 - 0.5j])


def test_parse_vector_golden_field():
    got = parse_vector("sqrt5:1+s5, 2, -s5")
    assert np.allclose(got, [1 + np.sqrt(5.0), 2.0, -np.sqrt(5.0)])


@pytest.mark.parametrize("bad", ["", "1,,2", "1+qi", "abc", "1/0", "1e400,1", "sqrt5:1+s5x"])
def test_parse_vector_rejects_garbage(bad):
    with pytest.raises(InputError):
        parse_vector(bad)


def test_vector_literal_round_trip():
    for v in [np.array([1.0, -0.25, 3.0]), np.array([1 + 2j, -1j, 0.5 + 0.0j])]:
        assert np.allclose(parse_vector(format_vector(v)), v)
    # .17g writes exponents, and a complex entry takes them on either part
    for v in [np.array([1e-5 + 1j, 1]), np.array([0.5 + 1e-7j, 1]), np.array([1e20 + 1j, 1])]:
        assert np.array_equal(parse_vector(format_vector(v)), v)
