"""Design potentials, Welch constants, strength reports, antipodal doubling."""
from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import exact_oracle as oracle
from orbitdesigns import (
    ConsistencyError,
    MismatchError,
    antipodal_design_check,
    build_group,
    catalog,
    catalog_entry,
    cross_potential,
    double_to_antipodal,
    orbit_lines,
    potential,
    solve_union,
    strength,
    union_lines,
    welch_constant,
)
from orbitdesigns import designs, groups
from orbitdesigns.cli import _load_expectations, _resolve_seed
from orbitdesigns.designs import moments
from orbitdesigns.orbits import LineSet

EPS = np.finfo(float).eps


def _orbit(label, k):
    return orbit_lines(build_group(label), np.asarray(catalog_entry(label).seeds[k - 1]))


def test_welch_constant_examples():
    assert welch_constant("C", 2, 2) == Fraction(1, 3)
    assert welch_constant("R", 3, 2) == Fraction(1, 5)
    for d in range(1, 9):
        assert welch_constant("C", d, 1) == Fraction(1, d)
    assert welch_constant("R", 2, 3) == Fraction(1 * 3 * 5, 2 * 4 * 6)


def test_welch_constant_formula_sweep():
    # independent evaluation: binomial for C, double factorial ratio for R
    for d in range(1, 9):
        for t in range(1, 13):
            assert welch_constant("C", d, t) == Fraction(1, math.comb(t + d - 1, t))
            num = den = 1
            for k in range(t):
                num *= 2 * k + 1
                den *= d + 2 * k
            assert welch_constant("R", d, t) == Fraction(num, den)


def test_welch_constant_rejects_bad_args():
    with pytest.raises(ValueError):
        welch_constant("R", 0, 2)
    with pytest.raises(ValueError):
        welch_constant("C", 2, 0)


def test_potential_orthonormal_basis():
    for d in (2, 3, 4):
        from orbitdesigns.orbits import LineSet

        X = LineSet(field="C", lines=np.eye(d, dtype=complex),
                    weights=np.full(d, 1.0 / d))
        assert abs(potential(X, 1) - 1.0 / d) < 1e-15


def test_potential_single_line():
    from orbitdesigns.orbits import LineSet

    X = LineSet(field="R", lines=np.array([[0.6, 0.8]]), weights=np.array([1.0]))
    for t in (1, 2, 5, 9):
        assert potential(X, t) == 1.0


def test_potential_four_line_union_at_t3():
    g = build_group("G(2,1,2)")
    U = union_lines(_orbit("B(2)", 1), _orbit("B(2)", 2),
                    (Fraction(1, 2), Fraction(1, 2)))
    c3 = welch_constant("R", 2, 3)
    assert c3 == Fraction(5, 16)
    assert abs(potential(U, 3) - float(c3)) <= 1e-15
    assert g.order == 8


def test_potential_rejects_bad_order():
    with pytest.raises(ValueError):
        potential(_orbit("B(2)", 1), 0)


def test_cross_potential_single_lines():
    from orbitdesigns.orbits import LineSet

    X = LineSet(field="R", lines=np.array([[1.0, 0.0]]), weights=np.array([1.0]))
    assert cross_potential(X, X, 4) == 1.0


def test_cross_potential_of_two_designs_hits_welch():
    # both dihedral(3) orbits are (2,2)-designs; their cross term must be c_2
    X = _orbit("dihedral(3)", 1)
    Y = _orbit("dihedral(3)", 2)
    c2 = float(welch_constant("R", 2, 2))
    assert abs(cross_potential(X, Y, 2) - c2) <= 1e-9 * c2


def test_cross_potential_seed_orbits_t1():
    X, Y = _orbit("B(2)", 1), _orbit("B(2)", 2)
    assert abs(cross_potential(X, Y, 1) - 0.5) <= 1e-12


def test_cross_potential_mismatch():
    with pytest.raises(MismatchError):
        cross_potential(_orbit("B(2)", 1), _orbit("B(3)", 1), 2)


def test_strength_of_binary_icosahedral_orbit():
    X = orbit_lines(build_group("binI"), np.array([3.0 + 1.0j, 1.0]))
    assert X.n_lines == 60
    assert strength(X).strength == 5


def test_strength_of_dihedral3_orbit():
    assert strength(_orbit("dihedral(3)", 1)).strength == 2


@pytest.mark.parametrize("label", ["A(3)", "B(4)", "binT", "H3", "heis(3)"])
def test_orbits_are_tight_frames(label):
    # any orbit of an irreducible group integrates t = 1 exactly
    for k in range(1, len(catalog_entry(label).seeds) + 1):
        assert strength(_orbit(label, k)).strength >= 1


def test_strength_report_shape_and_closure():
    X = _orbit("H3", 1)
    rep = strength(X, t_max=6)
    assert rep.t_values == (1, 2, 3, 4, 5, 6)
    assert rep.potentials == tuple(potential(X, t) for t in rep.t_values)
    assert len(rep.potentials) == len(rep.targets) == len(rep.residuals) == 6
    for t in range(1, rep.strength + 1):
        assert abs(rep.residual_at(t)) <= 1e-9
    assert abs(rep.residual_at(rep.strength + 1)) > 1e-9


def test_moments_match_exact_oracle():
    # float lines round entries such as 1/sqrt(3), so the relative error of
    # |<a,b>|^(2t) grows like 2t ulp; 4t ulp leaves a factor-2 margin
    for label in ("A(3)", "B(3)", "D(3)"):
        elements, _ = oracle.oracle_group(label)
        g = build_group(label)
        seeds = catalog_entry(label).seeds
        float_orbits = [orbit_lines(g, s) for s in seeds]
        exact_orbits = [oracle.orbit(elements, tuple(int(v) for v in s)) for s in seeds]
        for i, j in itertools.combinations_with_replacement(range(len(seeds)), 2):
            X, Y = float_orbits[i], float_orbits[j]
            got = moments(X.lines, X.weights, Y.lines, Y.weights, range(1, 9))
            for t, value in enumerate(got, start=1):
                exact = float(oracle.cross_potential(exact_orbits[i], exact_orbits[j], t))
                assert abs(value - exact) <= 4 * t * EPS * exact, (label, i, j, t)
                # the same moment from one Gram row per orbit
                rows = potential(X, t) if i == j else cross_potential(X, Y, t)
                assert abs(rows - exact) <= 4 * t * EPS * exact, (label, i, j, t)


def _full_sum(X, ts):
    """X's potentials from every Gram row, and the scale of their rounding error."""
    w = np.abs(X.weights)
    return (moments(X.lines, X.weights, X.lines, X.weights, ts),
            moments(X.lines, w, X.lines, w, ts))


# Each route is within 4t ulp of the exact potential (see the oracle test), so
# the two are within 8t ulp of each other: binT @1 differs by 4.8t ulp, the
# orbit row being the nearer to the exact value.
def test_orbit_rows_match_full_sum():
    ts = range(1, 13)
    for entry in catalog():
        g = build_group(entry.spec)
        for k, seed in enumerate(entry.seeds, start=1):
            X = orbit_lines(g, seed)
            rep = strength(X, 12)
            full, _ = _full_sum(X, ts)
            for t, f, p in zip(ts, full, rep.potentials):
                assert p == potential(X, t)
                assert abs(p - f) <= 8 * t * EPS * f, (entry.spec.label, k, t)


def test_union_rows_match_full_sum():
    ts = range(1, 13)
    for row in _load_expectations():
        if not row["seedY"] or not row["betaX"]:
            continue
        g = build_group(row["group"])
        X, Y = (orbit_lines(g, _resolve_seed(row["group"], row[k])[0])
                for k in ("seedX", "seedY"))
        U = solve_union(X, Y, int(row["t"])).union
        assert U.group is g and len(U.orbit_starts) in (1, 2)
        bare = dataclasses.replace(U, group=None, orbit_starts=None)
        _, scale = _full_sum(U, ts)
        pairs = zip(ts, strength(U, 12).potentials, strength(bare, 12).potentials, scale)
        for t, p, f, s in pairs:
            assert abs(p - f) <= 8 * t * EPS * s, (row["group"], row["betaX"], t)


@pytest.fixture
def row_counts(monkeypatch):
    """Rows of the first argument of every moments call."""
    counts = []
    kernel = designs.moments

    def counted(A, *args):
        counts.append(A.shape[0])
        return kernel(A, *args)

    monkeypatch.setattr(designs, "moments", counted)
    return counts


def test_solve_union_sums_one_row_per_orbit(row_counts):
    X, Y = _orbit("H4", 1), _orbit("H4", 4)
    sol = solve_union(X, Y, 6)
    assert sol.union.n_lines == 660 and sol.verified.strength >= 6
    assert row_counts and max(row_counts) <= 2


def test_sets_without_a_shared_group_sum_every_row(row_counts):
    X = _orbit("H3", 2)
    potential(LineSet(field=X.field, lines=X.lines, weights=X.weights), 4)
    groups._build_cached.cache_clear()  # a second, distinct H3 group object
    Y = _orbit("H3", 1)
    assert Y.group is not X.group
    cross_potential(X, Y, 4)
    assert row_counts == [X.n_lines, X.n_lines]


def test_union_of_an_orbit_with_itself_is_one_block():
    X = _orbit("H4", 1)
    U = union_lines(X, X, (Fraction(1, 3), Fraction(2, 3)))
    assert U.group is X.group and U.orbit_starts == (0,)
    assert potential(U, 6) == potential(X, 6)


def test_unequal_weights_within_an_orbit_raise():
    X = _orbit("H3", 1)
    w = X.weights.copy()
    w[:2] += [1e-3, -1e-3]
    bad = dataclasses.replace(X, weights=w)
    with pytest.raises(ConsistencyError, match="weights vary within an orbit"):
        potential(bad, 2)
    with pytest.raises(ConsistencyError, match="weights vary within an orbit"):
        cross_potential(X, bad, 2)


def test_welch_lower_bound_on_positive_sets():
    for label, k in [("binT", 1), ("B(3)", 2), ("H3", 2), ("dihedral(5)", 1)]:
        X = _orbit(label, k)
        for t in range(1, 9):
            target = float(welch_constant(X.field, X.dim, t))
            assert potential(X, t) >= target - 1e-9


def test_potential_unitary_invariance():
    X = _orbit("H3", 1)
    rng = np.random.default_rng(7)
    M = rng.standard_normal((3, 3))
    Q, _ = np.linalg.qr(M)
    from orbitdesigns.orbits import LineSet, _canonicalize_rows
    from orbitdesigns import DEFAULT_TOL

    rotated = LineSet(field="R", lines=_canonicalize_rows(X.lines @ Q.T, DEFAULT_TOL),
                      weights=X.weights)
    for t in (1, 2, 3, 5):
        assert abs(potential(rotated, t) - potential(X, t)) <= 1e-10


def test_signed_union_reports_signed_strength():
    g = build_group("D(3)")
    X = orbit_lines(g, np.array([1.0, 1.0, 1.0]))
    Y = orbit_lines(g, np.array([1.0, 1.0, 0.0]))
    U = union_lines(X, Y, (Fraction(-3, 5), Fraction(8, 5)))
    rep = strength(U, t_max=4)
    assert rep.signed
    assert rep.strength >= 2


def test_double_to_antipodal_single_line():
    from orbitdesigns.orbits import LineSet

    X = LineSet(field="R", lines=np.array([[1.0, 0.0]]), weights=np.array([1.0]))
    aset = double_to_antipodal(X)
    assert aset.vectors.shape == (2, 2)
    assert np.allclose(aset.vectors[0], -aset.vectors[1])
    assert np.allclose(aset.weights, [0.5, 0.5])


def test_double_to_antipodal_rejects_complex():
    with pytest.raises(MismatchError):
        double_to_antipodal(_orbit("binT", 1))


def test_doubled_cross_is_spherical_seven_design():
    U = union_lines(_orbit("B(2)", 1), _orbit("B(2)", 2),
                    (Fraction(1, 2), Fraction(1, 2)))
    rep = strength(U, t_max=4)
    assert rep.strength == 3
    aset = double_to_antipodal(U, rep)
    assert aset.vectors.shape[0] == 8
    assert aset.spherical_order == 7
    check = antipodal_design_check(aset, 3)
    assert check["passes"]
    assert check["paired"]
    assert check["spherical_order"] == 7
    assert abs(check["even_residual"]) <= 1e-9
    assert abs(check["odd_moment"]) <= 1e-9


def test_antipodal_check_flags_unpaired_sets():
    U = union_lines(_orbit("B(2)", 1), _orbit("B(2)", 2),
                    (Fraction(1, 2), Fraction(1, 2)))
    aset = double_to_antipodal(U)
    broken = type(aset)(vectors=aset.vectors[:-1], weights=aset.weights[:-1])
    check = antipodal_design_check(broken, 3)
    assert not check["paired"]
    assert not check["passes"]
