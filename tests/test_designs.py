"""Design potentials, Welch constants, moment sums and strength reports."""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import exact_oracle as oracle
from orbitdesigns import (
    ConsistencyError,
    MismatchError,
    build_group,
    catalog,
    catalog_entry,
    cross_matrix,
    orbit_lines,
    solve_union,
    strength,
    union_lines,
    verify_certificate,
    welch_constant,
)
from orbitdesigns import designs, groups
from orbitdesigns.cli import _load_expectations, _resolve_seed
from orbitdesigns.designs import moments
from orbitdesigns.numerics import GRAM_TILE
from orbitdesigns.orbits import LineSet

EPS = np.finfo(float).eps
CERTIFICATES = sorted((Path(__file__).parents[1] / "perfbench" / "certificates").glob("*.json"))


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


def test_welch_targets_are_the_rounded_constants():
    for field in ("R", "C"):
        for d in range(1, 9):
            assert designs.welch_targets(field, d, 60) == [
                float(welch_constant(field, d, t)) for t in range(1, 61)]


def test_welch_constant_rejects_bad_args():
    with pytest.raises(ValueError, match="need d >= 1 and t >= 1"):
        welch_constant("R", 0, 2)
    with pytest.raises(ValueError, match="need d >= 1 and t >= 1"):
        welch_constant("C", 2, 0)
    with pytest.raises(ValueError, match="field must be 'R' or 'C', got 'Q'"):
        welch_constant("Q", 2, 2)


def test_potential_orthonormal_basis():
    for d in (2, 3, 4):
        from orbitdesigns.orbits import LineSet

        X = LineSet(lines=np.eye(d, dtype=complex),
                    exact_weights=(Fraction(1, d),) * d)
        assert abs(strength(X, 1).potentials[0] - 1.0 / d) < 1e-15


def test_potential_single_line():
    from orbitdesigns.orbits import LineSet

    X = LineSet(lines=np.array([[0.6, 0.8]]), exact_weights=(Fraction(1),))
    potentials = strength(X, 9).potentials
    for t in (1, 2, 5, 9):
        assert potentials[t - 1] == 1.0


def test_potential_four_line_union_at_t3():
    g = build_group("G(2,1,2)")
    U = union_lines(_orbit("B(2)", 1), _orbit("B(2)", 2),
                    (Fraction(1, 2), Fraction(1, 2)))
    c3 = welch_constant("R", 2, 3)
    assert c3 == Fraction(5, 16)
    rep = strength(U, t_max=4)
    assert abs(rep.potentials[2] - float(c3)) <= 1e-15
    assert rep.strength == 3
    assert g.order == 8


def test_potential_rejects_bad_order():
    X = _orbit("B(2)", 1)
    with pytest.raises(ValueError, match="t_max >= 1"):
        cross_matrix([X], 0)
    for t_max in (0, -1):
        with pytest.raises(ValueError, match="t_max >= 1"):
            strength(X, t_max)
    with pytest.raises(ValueError, match="t_max >= 1"):
        moments(X.lines, X.weights, X.lines, X.weights, -1)


def test_cross_potential_single_lines():
    from orbitdesigns.orbits import LineSet

    X = LineSet(lines=np.array([[1.0, 0.0]]), exact_weights=(Fraction(1),))
    assert cross_matrix([X, X], 4)[3, 0, 1] == 1.0


def test_cross_potential_of_two_designs_hits_welch():
    # both dihedral(3) orbits are (2,2)-designs; their cross term must be c_2
    X = _orbit("dihedral(3)", 1)
    Y = _orbit("dihedral(3)", 2)
    c2 = float(welch_constant("R", 2, 2))
    assert abs(cross_matrix([X, Y], 2)[1, 0, 1] - c2) <= 1e-9 * c2


def test_cross_potential_seed_orbits_t1():
    X, Y = _orbit("B(2)", 1), _orbit("B(2)", 2)
    assert abs(cross_matrix([X, Y], 1)[0, 0, 1] - 0.5) <= 1e-12


def test_cross_potential_mismatch():
    with pytest.raises(MismatchError):
        cross_matrix([_orbit("B(2)", 1), _orbit("B(3)", 1)], 2)


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
    assert [f.name for f in dataclasses.fields(rep)] == ["potentials", "residuals", "strength"]
    assert rep.potentials == tuple(cross_matrix([X], 6)[:, 0, 0])
    assert len(rep.potentials) == len(rep.residuals) == 6
    for t, (p, r) in enumerate(zip(rep.potentials, rep.residuals), start=1):
        c_t = float(welch_constant("R", 3, t))
        assert rep.residual_at(t) == r == (p - c_t) / c_t
    for t in range(1, rep.strength + 1):
        assert abs(rep.residual_at(t)) <= 1e-9
    assert abs(rep.residual_at(rep.strength + 1)) > 1e-9


@pytest.mark.parametrize("t", [0, 7])
def test_residual_at_rejects_orders_outside_the_report(t):
    # residuals[t - 1] would read order 6 at t = 0
    rep = strength(_orbit("H3", 1), t_max=6)
    with pytest.raises(ValueError, match=rf"t={t} is outside the report's orders 1\.\.6"):
        rep.residual_at(t)


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
            got = moments(X.lines, X.weights, Y.lines, Y.weights, 8)
            P = cross_matrix([X, Y], 8)  # the same moments from one Gram row per orbit
            for t, value in enumerate(got, start=1):
                exact = float(oracle.cross_potential(exact_orbits[i], exact_orbits[j], t))
                assert abs(value - exact) <= 4 * t * EPS * exact, (label, i, j, t)
                assert abs(P[t - 1, 0, 1] - exact) <= 4 * t * EPS * exact, (label, i, j, t)


def _det(rows):
    """Exact determinant by expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]))


@pytest.mark.parametrize("label,seeds", [
    ("A(3)", [(1, 1, -1, -1), (3, -1, -1, -1), (1, -1, 0, 0)]),
    ("B(3)", [(1, 0, 0), (1, 1, 0), (1, 1, 1)]),
    ("D(3)", [(1, 0, 0), (1, 1, 0), (1, 1, 1)]),
])
def test_cross_matrix_of_three_orbits_matches_exact_oracle(label, seeds):
    elements, d = oracle.oracle_group(label)
    g = build_group(label)
    exact_orbits = [oracle.orbit(elements, s) for s in seeds]
    P = designs.cross_matrix([orbit_lines(g, np.array(s, dtype=float)) for s in seeds], 5)
    assert P.shape == (5, 3, 3)
    for t in range(1, 6):
        M = [[oracle.cross_potential(X, Y, t) for Y in exact_orbits] for X in exact_orbits]
        assert np.abs(P[t - 1] - np.array(M, dtype=float)).max() <= 1e-12, (label, t)
        # the variational characterisation: w^T M_t w >= c_t (sum w)^2 for every
        # real w, so D_t = M_t - c_t J is positive semidefinite
        c_t = oracle.welch("R", d, t)
        D = [[m - c_t for m in row] for row in M]
        for k in range(1, 4):
            for keep in itertools.combinations(range(3), k):
                minor = _det([[D[i][j] for j in keep] for i in keep])
                assert minor >= 0, (label, t, keep)


def _exact_sum_rounded_once(terms):
    """The exact sum of float terms, as a Fraction, rounded once to a float."""
    return float(sum(map(Fraction, terms), Fraction(0)))


def test_moments_equal_the_exact_sum_of_their_terms():
    # moments forms each term in binary64 (one Gram product for these sizes,
    # u^t left to right); the sum itself must be the correctly rounded one
    ts = list(range(1, 13))
    for entry in catalog():
        g = build_group(entry.spec)
        X, Y = (orbit_lines(g, seed) for seed in (entry.seeds[0], entry.seeds[-1]))
        if X.n_lines * Y.n_lines > 2000:
            continue
        M = X.lines @ Y.lines.conj().T
        u = (M * M.conj()).real
        ww = X.weights[:, None] * Y.weights[None, :]
        power, exact = u, []
        for t in ts:
            power = power * u if t > 1 else u
            exact.append(_exact_sum_rounded_once((ww * power).ravel().tolist()))
        got = moments(X.lines, X.weights, Y.lines, Y.weights, len(ts))
        assert [x.hex() for x in got] == [x.hex() for x in exact], entry.spec.label


def test_self_moments_equal_the_exact_sum_of_each_pair_once():
    # a set against itself: each diagonal term once and each upper term
    # twice, formed from one full Gram product, the sum correctly rounded
    ts = list(range(1, 13))
    fields = set()
    for entry in catalog():
        g = build_group(entry.spec)
        for seed in entry.seeds:
            X = orbit_lines(g, seed)
            if X.n_lines ** 2 > GRAM_TILE:  # more than one Gram tile
                continue
            stripped = LineSet(lines=X.lines, exact_weights=X.exact_weights)
            L, w = stripped.lines, stripped.weights
            M = L @ L.conj().T
            u = (M * M.conj()).real
            ww = w[:, None] * w[None, :]
            upper = np.triu_indices(len(L), 1)
            power, exact = u, []
            for t in ts:
                power = power * u if t > 1 else u
                term = ww * power
                exact.append(_exact_sum_rounded_once(
                    np.diag(term).tolist() + (2.0 * term[upper]).tolist()))
            hexes = [x.hex() for x in exact]
            assert [x.hex() for x in moments(L, w, L, w, len(ts))] == hexes, entry.spec.label
            assert [x.hex() for x in strength(stripped, len(ts)).potentials] == hexes
            fields.add(X.field)
    assert fields == {"R", "C"}


def _stored_set(path):
    cert = json.loads(path.read_text())
    return LineSet(lines=np.array(cert["lines"]),
                   exact_weights=tuple(map(Fraction, cert["weights"])))


def _complex_union():
    return union_lines(_orbit("binI", 1), _orbit("binI", 2), (Fraction(5, 14), Fraction(9, 14)))


# Each route is within 4t ulp of the exact potential, so the two are within
# 8t ulp of each other, in units of the sum with every weight made positive.
@pytest.mark.parametrize("name", [p.name for p in CERTIFICATES] + ["binI @1 + @2"])
def test_self_path_agrees_with_the_full_sum(name):
    X = _complex_union() if name.startswith("binI") else _stored_set(CERTIFICATES[0].parent / name)
    L, w, a = X.lines, X.weights, np.abs(X.weights)
    self_path = moments(L, w, L, w, 12)
    full = moments(L, w, L.copy(), w.copy(), 12)  # distinct arrays: every ordered pair
    scale = moments(L, a, L.copy(), a.copy(), 12)
    for t, (p, f, s) in enumerate(zip(self_path, full, scale), start=1):
        assert abs(p - f) <= 8 * t * EPS * s, (name, t)


def _full_sum(X, t_max):
    """X's potentials at t = 1..t_max from every pair of lines, and the scale
    of their rounding error."""
    w = np.abs(X.weights)
    return (moments(X.lines, X.weights, X.lines, X.weights, t_max),
            moments(X.lines, w, X.lines, w, t_max))


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
            full, _ = _full_sum(X, 12)
            for t, f, p in zip(ts, full, rep.potentials):
                assert p == cross_matrix([X], t)[t - 1, 0, 0]
                assert abs(p - f) <= 8 * t * EPS * f, (entry.spec.label, k, t)


def test_union_rows_match_full_sum():
    # the verified potentials are w^T P w from the orbits' cross matrix; the
    # reference sums every Gram row of the assembled union
    ts = range(1, 13)
    for row in _load_expectations():
        if not row["seedY"] or not row["betaX"]:
            continue
        g = build_group(row["group"])
        X, Y = (orbit_lines(g, _resolve_seed(row["group"], row[k])[0])
                for k in ("seedX", "seedY"))
        sol = solve_union(X, Y, int(row["t"]))
        U = union_lines(X, Y, sol.root.beta)
        assert U.group is None
        full, scale = _full_sum(U, 12)
        for t, p, f, s in zip(ts, sol.verified.potentials, full, scale):
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
    assert union_lines(X, Y, sol.root.beta).n_lines == 660 and sol.verified.strength >= 6
    assert row_counts == [1, 1, 1]  # b_xx, b_xy and b_yy, each at every order


def test_sets_without_a_shared_group_sum_every_row(row_counts):
    X = _orbit("H3", 2)
    strength(LineSet(lines=X.lines, exact_weights=X.exact_weights), 4)
    groups._build_cached.cache_clear()  # a second, distinct H3 group object
    Y = _orbit("H3", 1)
    assert Y.group is not X.group
    cross_matrix([X, Y], 4)
    # X and Y are each an orbit of its own group, one row apiece; X against Y
    # has no shared group
    assert row_counts == [X.n_lines, 1, X.n_lines, 1]


def test_verify_sums_every_certificate_row(row_counts):
    # a certificate's lines carry no group, so strength sums every pair of
    # its 660 lines, each unordered pair once
    path = Path(__file__).parents[1] / "perfbench" / "certificates" / "h4_t6_x1_y4.json"
    assert verify_certificate(str(path)).passed
    assert row_counts == [660]


def test_verify_blocks_are_small_and_meet_each_pair_once(monkeypatch):
    path = Path(__file__).parents[1] / "perfbench" / "certificates" / "h4_t6_x1_y4.json"
    shapes = []
    sums = designs.compensated_sums

    def recorded(blocks, k):
        def each():
            for block in blocks:
                shapes.append(block.shape)
                yield block
        return sums(each(), k)

    monkeypatch.setattr(designs, "compensated_sums", recorded)
    assert verify_certificate(str(path)).passed
    # each block holds a run of rows against the columns from its own first
    # row on; its square part adds the pairs below the diagonal, weighted 0
    n, first, square = 660, 0, 0
    for k, columns in shapes:
        assert k * columns <= 1 << 15
        rows, rest = divmod(columns, n - first)
        assert rows >= 1 and rest == 0
        square += rows * (rows - 1) // 2
        first += rows
    assert first == n
    total = sum(columns for _, columns in shapes)
    assert total == n * (n + 1) // 2 + square  # the full sum takes n * n = 435,600
    assert square < 0.02 * (n * (n + 1) // 2)


def test_passes_over_a_union_keep_a_small_working_set():
    # a Gram tile and its block of terms, each at most 2^15 doubles, are the
    # only working arrays above 64 KiB: the exact sum takes chunks of 2^13
    # terms, and validate zeroes its one |gram| tile in place
    U = union_lines(_orbit("H4", 1), _orbit("H4", 4), (Fraction(1, 2), Fraction(1, 2)))
    assert U.n_lines == 660

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: strength(U, 12)) < 1.25 * 2**20
    assert peak(U.validate) < 0.75 * 2**20


@pytest.mark.parametrize("path", CERTIFICATES, ids=lambda p: p.name)
def test_potential_bits_do_not_depend_on_t_max(path):
    X = _stored_set(path)
    top = strength(X, 12).potentials
    for k in range(1, 12):
        assert strength(X, k).potentials == top[:k], k


def test_union_of_an_orbit_with_itself_is_one_block():
    X = _orbit("H4", 1)
    U = union_lines(X, X, (Fraction(1, 3), Fraction(2, 3)))
    assert U.group is None and np.array_equal(U.lines, X.lines)
    assert U.exact_weights == X.exact_weights
    assert strength(U, 6).potentials[5] == _full_sum(X, 6)[0][5]


def test_unequal_weights_within_an_orbit_raise():
    X = _orbit("H3", 1)
    w = list(X.exact_weights)
    w[0] += Fraction(1, 1000)
    w[1] -= Fraction(1, 1000)
    bad = dataclasses.replace(X, exact_weights=tuple(w))
    with pytest.raises(ConsistencyError, match="weights vary within an orbit"):
        strength(bad, 2)
    with pytest.raises(ConsistencyError, match="weights vary within an orbit"):
        cross_matrix([X, bad], 2)


def test_welch_lower_bound_on_positive_sets():
    for label, k in [("binT", 1), ("B(3)", 2), ("H3", 2), ("dihedral(5)", 1)]:
        X = _orbit(label, k)
        for t, p in enumerate(strength(X, 8).potentials, start=1):
            target = float(welch_constant(X.field, X.dim, t))
            assert p >= target - 1e-9


def test_potential_unitary_invariance():
    X = _orbit("H3", 1)
    rng = np.random.default_rng(7)
    M = rng.standard_normal((3, 3))
    Q, _ = np.linalg.qr(M)
    from orbitdesigns.orbits import LineSet, _canonicalize_rows

    rotated = LineSet(lines=_canonicalize_rows(X.lines @ Q.T),
                      exact_weights=X.exact_weights)
    for p, q in zip(strength(rotated, 5).potentials, strength(X, 5).potentials):
        assert abs(p - q) <= 1e-10


def test_signed_union_reports_signed_strength():
    g = build_group("D(3)")
    X = orbit_lines(g, np.array([1.0, 1.0, 1.0]))
    Y = orbit_lines(g, np.array([1.0, 1.0, 0.0]))
    U = union_lines(X, Y, (Fraction(-3, 5), Fraction(8, 5)))
    assert U.signed
    assert strength(U, t_max=4).strength >= 2
