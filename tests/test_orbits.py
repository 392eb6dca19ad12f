"""Projective lines: canonicalization, orbits, unions, vector literals."""
from __future__ import annotations

import dataclasses
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
    Tolerance,
    build_group,
    canonical_line,
    catalog,
    catalog_entry,
    format_vector,
    group_order,
    orbit_lines,
    parse_vector,
    union_lines,
)
from orbitdesigns import groups
from orbitdesigns.orbits import VALIDATE_BLOCK_TERMS


def test_canonical_line_sign():
    assert np.allclose(canonical_line(np.array([0.0, -2.0])), [0.0, 1.0])


def test_canonical_line_phase():
    v = np.array([1j, 1.0]) / np.sqrt(2.0)
    got = canonical_line(v)
    want = np.array([1.0, -1j]) / np.sqrt(2.0)
    assert np.allclose(got, want)


def test_canonical_line_rejects_zero():
    with pytest.raises(InputError):
        canonical_line(np.zeros(3))


_unit_entries = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(st.lists(st.tuples(_unit_entries, _unit_entries), min_size=2, max_size=5))
@settings(max_examples=150)
def test_canonical_line_idempotent(entries):
    v = np.array([complex(a, b) for a, b in entries])
    if np.linalg.norm(v) < 1e-3:
        return
    once = canonical_line(v)
    twice = canonical_line(once)
    assert np.allclose(once, twice, atol=1e-12)
    assert abs(np.linalg.norm(once) - 1.0) < 1e-12


@given(st.lists(_unit_entries, min_size=2, max_size=5), _unit_entries)
@settings(max_examples=150)
def test_canonical_line_kills_scaling(entries, scale):
    v = np.array(entries)
    if np.linalg.norm(v) < 1e-3 or abs(scale) < 1e-3:
        return
    assert np.allclose(canonical_line(v), canonical_line(scale * v), atol=1e-9)


def test_orbit_sizes_match_stabilizer_index():
    assert orbit_lines(build_group("G(2,1,2)"), np.array([1.0, 0.0])).n_lines == 2
    assert orbit_lines(build_group("G(2,1,4)"), np.ones(4)).n_lines == 8
    generic = orbit_lines(build_group("binI"), np.array([3.0 + 1.0j, 1.0]))
    assert generic.n_lines == 60


def _closure_images(group, seed):
    """Canonical images of the seed under every enumerated group element."""
    x = group.embed_seed(np.asarray(seed))
    return np.array([canonical_line(v) for v in group.elements @ x])


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


def test_h4_orbits_never_close_the_group(monkeypatch):
    calls = []
    close = groups.close_group

    def counted(*args, **kwargs):
        calls.append(args[2])  # the spec
        return close(*args, **kwargs)

    monkeypatch.setattr(groups, "close_group", counted)
    groups._build_cached.cache_clear()  # a cached H4 may already hold its elements
    g = build_group("H4")
    sizes = [orbit_lines(g, seed).n_lines for seed in catalog_entry("H4").seeds]
    assert sizes == [60, 300, 360, 600]
    assert g.order == 14400
    assert calls == []


def test_orbit_walk_rejects_merged_keys():
    # at 1 digit distinct lines of this A(4) orbit share keys, so the lines the
    # walk keeps are not permuted by the generators
    tol = Tolerance(dedup_digits=1)
    with pytest.raises(ConsistencyError, match="do not permute"):
        orbit_lines(build_group("A(4)", tol), catalog_entry("A(4)").seeds[0], tol)


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
    assert U.group is X.group and U.orbit_starts == (0,)


def test_union_merges_identical_sets():
    X = orbit_lines(build_group("B(2)"), np.array([1.0, 0.0]))
    U = union_lines(X, X, (Fraction(1, 2), Fraction(1, 2)))
    assert U.n_lines == X.n_lines
    assert U.exact_weights == X.exact_weights
    assert U.orbit_starts == (0,)


def test_union_four_line_cross():
    g = build_group("G(2,1,2)")
    X = orbit_lines(g, np.array([1.0, 0.0]))
    Y = orbit_lines(g, np.array([1.0, 1.0]))
    U = union_lines(X, Y, (Fraction(1, 2), Fraction(1, 2)))
    assert U.n_lines == 4
    assert U.exact_weights == (Fraction(1, 4),) * 4
    assert U.group is g and U.orbit_starts == (0, 2)


def test_union_of_a_two_orbit_union_drops_the_group():
    # only unions of two single orbits keep the orbit structure; a wider
    # union is a plain line set summed in full
    g = build_group("G(2,1,2)")
    X = orbit_lines(g, np.array([1.0, 0.0]))
    Y = orbit_lines(g, np.array([1.0, 1.0]))
    U = union_lines(X, Y, (Fraction(1, 2), Fraction(1, 2)))
    W = union_lines(U, X, (Fraction(1, 2), Fraction(1, 2)))
    assert W.group is None and W.orbit_starts is None
    assert W.exact_weights == (Fraction(3, 8),) * 2 + (Fraction(1, 8),) * 2


def test_union_of_a_float_only_set_sums_exact_fractions():
    # a set without exact_weights enters as the Fraction of each float
    # weight; Fraction * float would be a float
    g = build_group("H3")
    X = orbit_lines(g, catalog_entry("H3").seeds[1])
    Y = orbit_lines(g, catalog_entry("H3").seeds[0])
    w = np.linspace(1.0, 2.0, X.n_lines)
    F = LineSet(field=X.field, lines=X.lines, weights=w / w.sum())
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
    # one line of Y's orbit block coincides with a line of X, the other not:
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
    plain = dataclasses.replace(half, group=None, orbit_starts=None)
    assert union_lines(X, plain, (Fraction(1, 2), Fraction(1, 2))).orbit_starts is None


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
    broken = type(X)(field=X.field, lines=X.lines, weights=X.weights * 2.0)
    with pytest.raises(ConsistencyError):
        broken.validate()


def test_validate_catches_repeated_lines():
    X = orbit_lines(build_group("B(2)"), np.array([1.0, 0.0]))
    H = orbit_lines(build_group("H4"), catalog_entry("H4").seeds[3])
    assert VALIDATE_BLOCK_TERMS // H.n_lines < H.n_lines  # H spans several row blocks
    C = orbit_lines(build_group("binT"), catalog_entry("binT").seeds[0])
    cases = [
        np.vstack([X.lines, -X.lines[:1]]),  # -x spans the line of x
        np.vstack([H.lines, H.lines[-1:]]),  # adjacent rows, in the last block
        np.vstack([H.lines, H.lines[:1]]),  # the first and the last row
        np.vstack([C.lines, np.exp(0.7j) * C.lines[2:3]]),  # a phase
    ]
    for lines in cases:
        n = len(lines)
        repeated = LineSet(field=X.field, lines=lines, weights=np.full(n, 1 / n))
        with pytest.raises(ConsistencyError, match="coincide projectively"):
            repeated.validate()


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
    assert peak < 1 << 20  # the 660 x 660 Gram alone takes 3.3 MiB


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


def test_parse_vector_real_and_fractional():
    assert np.allclose(parse_vector("1, -2, 1/2"), [1.0, -2.0, 0.5])
    assert not np.iscomplexobj(parse_vector("3,0"))


def test_parse_vector_complex_forms():
    got = parse_vector("1+2i, -i, 0.5-1/2j")
    assert np.allclose(got, [1 + 2j, -1j, 0.5 - 0.5j])


def test_parse_vector_golden_field():
    got = parse_vector("sqrt5:1+s5, 2, -s5")
    assert np.allclose(got, [1 + np.sqrt(5.0), 2.0, -np.sqrt(5.0)])


@pytest.mark.parametrize("bad", ["", "1,,2", "1+qi", "abc", "1/0", "1e400,1"])
def test_parse_vector_rejects_garbage(bad):
    with pytest.raises(InputError):
        parse_vector(bad)


def test_vector_literal_round_trip():
    for v in [np.array([1.0, -0.25, 3.0]), np.array([1 + 2j, -1j, 0.5 + 0.0j])]:
        assert np.allclose(parse_vector(format_vector(v)), v)
