"""Union quadratic: coefficients, roots, preference, certificates."""
from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from orbitdesigns import (
    DEFAULT_TOL,
    CertificateError,
    MismatchError,
    NoSolutionError,
    build_group,
    catalog_entry,
    check_double_root,
    emit_certificate,
    orbit_lines,
    pair_quadratic,
    solve_union,
    verify_certificate,
    welch_constant,
)
from orbitdesigns.unions import PairQuadratic, _solve_roots


def _orbit(label, ref):
    entry = catalog_entry(label)
    seed = entry.seeds[ref - 1] if isinstance(ref, int) else np.asarray(ref)
    return orbit_lines(build_group(label), np.asarray(seed))


def test_pair_quadratic_identical_inputs():
    X = _orbit("B(3)", 2)
    q = pair_quadratic(X, X, 3)
    assert abs(q.a) <= 1e-12
    assert abs(q.b) <= 1e-12
    assert abs(q.c - (q.b_xx - float(q.c_t))) <= 1e-15


def test_pair_quadratic_two_designs_degenerate():
    # both dihedral(3) orbits integrate t = 2, so A and C vanish
    X, Y = _orbit("dihedral(3)", 1), _orbit("dihedral(3)", 2)
    q = pair_quadratic(X, Y, 2)
    scale = q.scale
    assert abs(q.a) <= 1e-12 * scale
    assert abs(q.c) <= 1e-12 * scale
    sol = solve_union(X, Y, 2)
    assert sol.degenerate
    assert not sol.empty
    assert sol.roots == ()


def test_pair_quadratic_mismatch():
    with pytest.raises(MismatchError):
        pair_quadratic(_orbit("B(2)", 1), _orbit("B(3)", 1), 2)


def test_four_line_cross_root():
    sol = solve_union(_orbit("B(2)", 1), _orbit("B(2)", 2), 2)
    root = sol.preferred_root
    assert root.beta == (Fraction(1, 2), Fraction(1, 2))
    assert root.w_hat == (Fraction(1), Fraction(1))
    assert root.from_double_root
    assert root.convex
    assert sol.verified.strength == 3


def test_symmetric_group_row():
    sol = solve_union(_orbit("A(3)", 1), _orbit("A(3)", 2), 2)
    root = sol.preferred_root
    assert root.beta == (Fraction(2, 5), Fraction(3, 5))
    assert root.w_hat == (Fraction(14, 15), Fraction(21, 20))
    assert root.residual <= 1e-9 * float(sol.quad.c_t)
    assert sol.verified.strength >= 2


def test_six_plus_twelve_line_row():
    # 6-line and 12-line complex orbits at t = 4, solved again at t = 5
    X, Y = _orbit("binO", 1), _orbit("binO", 3)
    assert (X.n_lines, Y.n_lines) == (6, 12)
    for t in (4, 5):
        sol = solve_union(X, Y, t)
        root = sol.preferred_root
        assert root.beta == (Fraction(1, 5), Fraction(4, 5))
        assert root.w_hat == (Fraction(3, 5), Fraction(6, 5))
    assert sol.verified.strength == 5


def test_heisenberg_pair_has_no_real_root():
    g = build_group("heis(3)")
    X = orbit_lines(g, np.asarray(catalog_entry("heis(3)").seeds[1]))
    Y = orbit_lines(g, np.array([1.0, 2.0, 4.0 + 1.0j]))
    sol = solve_union(X, Y, 2)
    assert sol.empty
    assert sol.discriminant < 0
    assert sol.preferred_root is None
    assert sol.union is None


def test_design_partner_forces_boundary_root():
    # the icosahedral 6-line orbit already integrates t = 2, so B and C
    # vanish and the only root puts all weight on it
    X = _orbit("B(3)", 1)
    Y = _orbit("H3", 1)
    sol = solve_union(X, Y, 2)
    root = sol.preferred_root
    assert root.beta == (Fraction(0), Fraction(1))
    assert root.boundary
    assert root.from_double_root
    assert sol.verified.strength == 2


def test_affine_relations_hold_exactly():
    for labels, t in [((("A(4)", 1), ("A(4)", 2)), 2),
                      ((("binI", 2), ("binI", 3)), 6),
                      ((("H4", 1), ("H4", 2)), 6)]:
        (lx, kx), (ly, ky) = labels
        X, Y = _orbit(lx, kx), _orbit(ly, ky)
        sol = solve_union(X, Y, t)
        root = sol.preferred_root
        assert root.beta[0] + root.beta[1] == 1
        assert (X.n_lines * root.w_hat[0] + Y.n_lines * root.w_hat[1]
                == X.n_lines + Y.n_lines)


@pytest.fixture
def synthetic_pair(monkeypatch):
    """Route solve_union through hand-picked quadratic coefficients.

    Valid normalized inputs can never produce two distinct real roots (the
    union potential is bounded below by c_t for every affine weighting), so
    the multi-root ranking is exercised with synthetic coefficients.
    """
    X, Y = _orbit("B(2)", 1), _orbit("B(2)", 2)

    def plant(a, b, c):
        quad = PairQuadratic(a, b, c, 1.0, 1.0, 0.0, Fraction(1, 2))
        monkeypatch.setattr("orbitdesigns.unions.pair_quadratic",
                            lambda *args, **kwargs: quad)
        return X, Y

    return plant


def test_two_roots_prefer_convex(synthetic_pair):
    # roots 1/4 (convex) and 3/2 (signed)
    X, Y = synthetic_pair(1.0, -7.0 / 4.0, 3.0 / 8.0)
    sol = solve_union(X, Y, 2)
    assert len(sol.roots) == 2
    assert sol.preferred_root.beta == (Fraction(1, 4), Fraction(3, 4))
    assert sol.preferred_root.convex
    assert not sol.roots[1 - sol.preferred].convex


def test_two_roots_prefer_convex_over_boundary(synthetic_pair):
    # roots 0 (boundary) and 2/3 (convex)
    X, Y = synthetic_pair(1.0, -2.0 / 3.0, 0.0)
    sol = solve_union(X, Y, 2)
    assert len(sol.roots) == 2
    assert sol.preferred_root.beta == (Fraction(2, 3), Fraction(1, 3))


def test_two_roots_prefer_boundary_over_signed(synthetic_pair):
    # roots -1 (signed) and 1 (boundary)
    X, Y = synthetic_pair(1.0, 0.0, -1.0)
    sol = solve_union(X, Y, 2)
    assert len(sol.roots) == 2
    assert sol.preferred_root.beta == (Fraction(1), Fraction(0))
    assert sol.preferred_root.boundary


def test_two_root_tie_breaks_deterministically(synthetic_pair):
    # roots 1/4 and 3/4 are both convex and equidistant from 1/2; the
    # lower root wins by index order
    X, Y = synthetic_pair(1.0, -1.0, 3.0 / 16.0)
    sol = solve_union(X, Y, 2)
    assert len(sol.roots) == 2
    assert sol.preferred_root.beta == (Fraction(1, 4), Fraction(3, 4))


def test_linear_fallback_when_leading_coefficient_vanishes():
    q = PairQuadratic(0.0, 2.0, -1.0, 1.0, 1.0, 0.5, Fraction(1, 2))
    roots, doubles, degenerate, _ = _solve_roots(q, DEFAULT_TOL)
    assert roots == [0.5]
    assert doubles == [False]
    assert not degenerate


def test_solve_roots_snaps_dust_coefficients():
    q = PairQuadratic(0.4, 1e-12, -1e-13, 1.0, 1.0, 0.8, Fraction(1, 3))
    roots, doubles, degenerate, _ = _solve_roots(q, DEFAULT_TOL)
    assert roots == [0.0]
    assert doubles == [True]
    assert not degenerate


def test_solve_roots_collapses_near_double_pair():
    # distinct floating roots +-1e-7 merge to their midpoint
    q = PairQuadratic(1.0, 0.0, -1e-14, 0.0, 0.0, 0.0, Fraction(1, 10**9))
    roots, doubles, _, disc = _solve_roots(q, DEFAULT_TOL)
    assert disc > 0
    assert roots == [0.0]
    assert doubles == [True]


def test_check_double_root_cross():
    sol = solve_union(_orbit("B(2)", 1), _orbit("B(2)", 2), 2)
    chk = check_double_root(sol)
    assert chk
    assert not chk.degenerate
    assert chk.residual <= 1e-8
    assert abs(chk.closed_beta[0] - 0.5) <= 1e-9
    assert chk.root_agreement <= 1e-9


def test_check_double_root_icosahedral_pair():
    sol = solve_union(_orbit("H3", 1), _orbit("H3", 2), 3)
    assert sol.preferred_root.beta == (Fraction(5, 14), Fraction(9, 14))
    chk = check_double_root(sol)
    assert chk.holds
    assert abs(chk.closed_beta[0] - 5.0 / 14.0) <= 1e-9


def test_check_double_root_degenerate_for_design_pair():
    sol = solve_union(_orbit("dihedral(3)", 1), _orbit("dihedral(3)", 2), 2)
    chk = check_double_root(sol)
    assert chk.holds
    assert chk.degenerate
    assert chk.closed_beta is None


def test_explicit_group_pairs(f4_path):
    g = build_group(f"explicit:{f4_path}")
    short12 = orbit_lines(g, np.array([1.0, 0.0, 0.0, 0.0]))
    long12 = orbit_lines(g, np.array([1.0, -1.0, 0.0, 0.0]))
    w48a = orbit_lines(g, np.array([2.0, 1.0, 1.0, 0.0]))
    w48b = orbit_lines(g, np.array([3.0, 1.0, 1.0, 1.0]))
    # the two root-line orbits pair with equal weight
    sol = solve_union(short12, long12, 3)
    assert sol.preferred_root.beta == (Fraction(1, 2), Fraction(1, 2))
    assert sol.verified.strength == 3
    # each 12 x 48 combination lands on one of two weightings, swapped
    # between the two 48-line orbits
    expect = {
        (Fraction(1, 10), Fraction(9, 10)): [(short12, w48a), (long12, w48b)],
        (Fraction(-1, 8), Fraction(9, 8)): [(short12, w48b), (long12, w48a)],
    }
    for beta, pairs in expect.items():
        for X, Y in pairs:
            sol = solve_union(X, Y, 3)
            assert sol.preferred_root.beta == beta
            assert sol.verified.strength == 3
            assert check_double_root(sol).holds


def test_certificate_round_trip(tmp_path):
    X, Y = _orbit("binO", 1), _orbit("binO", 3)
    sol = solve_union(X, Y, 4)
    path = tmp_path / "cert.json"
    cert = emit_certificate(sol, X, Y, path=str(path))
    assert cert["schema"] == 1
    assert cert["field"] == "C"
    assert cert["dim"] == 2
    assert cert["beta"] == ["1/5", "4/5"]
    assert cert["w_hat"] == ["3/5", "6/5"]
    assert len(cert["lines"]) == 18
    assert not cert["signed"]
    # the union is a (5,5)-design, so the stored residuals reach t = 5
    assert set(cert["residuals"]) == {"1", "2", "3", "4", "5"}
    for source in (cert, str(path)):
        result = verify_certificate(source)
        assert result.passed, result.reasons
        for t, (stored, recomputed) in result.residuals.items():
            assert abs(stored - recomputed) <= 1e-9


def test_certificate_signed_union():
    X, Y = _orbit("binO", 2), _orbit("binO", 3)
    sol = solve_union(X, Y, 4)
    assert sol.preferred_root.beta == (Fraction(-3, 5), Fraction(8, 5))
    cert = emit_certificate(sol, X, Y)
    assert cert["signed"]
    assert verify_certificate(cert).passed


def test_certificate_requires_a_root():
    X = _orbit("D(4)", 1)
    Y = _orbit("D(4)", 4)
    sol = solve_union(X, Y, 2)
    assert sol.empty
    with pytest.raises(NoSolutionError):
        emit_certificate(sol, X, Y)


@pytest.mark.parametrize("pair", [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
def test_orbit_row_residuals_match_full_gram_sum(pair):
    # the certificate's residuals come from one Gram row per orbit, verify's
    # from every row of the stored lines
    X, Y = (_orbit("H4", k) for k in pair)
    cert = emit_certificate(solve_union(X, Y, 6), X, Y)
    result = verify_certificate(cert)
    assert result.passed, result.reasons
    assert len(result.residuals) >= 6
    for stored, recomputed in result.residuals.values():
        assert abs(stored - recomputed) <= 1e-12


def test_stored_benchmark_certificates_verify():
    paths = sorted((Path(__file__).parents[1] / "perfbench" / "certificates").glob("*.json"))
    assert len(paths) == 4
    for path in paths:
        result = verify_certificate(str(path))
        assert result.passed, (path.name, result.reasons)


def _fresh_cert():
    X, Y = _orbit("B(2)", 1), _orbit("B(2)", 2)
    return emit_certificate(solve_union(X, Y, 2), X, Y)


def test_verify_flags_perturbed_weight():
    cert = _fresh_cert()
    cert["weights"][0] = "251/1000"
    result = verify_certificate(cert)
    assert not result.passed
    assert any("sum" in r for r in result.reasons)
    assert any("residual" in r for r in result.reasons)


def test_verify_flags_perturbed_line():
    cert = _fresh_cert()
    cert["lines"][0][0] += 1e-3
    result = verify_certificate(cert)
    assert not result.passed
    assert any("norm" in r for r in result.reasons)


def test_verify_flags_doctored_residuals():
    cert = _fresh_cert()
    cert["residuals"]["2"] = 0.5
    result = verify_certificate(cert)
    assert not result.passed
    assert any("disagrees" in r for r in result.reasons)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.pop("beta"),
        lambda c: c.update(schema=2),
        lambda c: c.update(dim="three"),
        lambda c: c.update(field="Q"),
        lambda c: c["weights"].pop(),
        lambda c: c.update(lines=[[0.1], [0.2]]),
    ],
)
def test_verify_rejects_structural_damage(mutate):
    cert = _fresh_cert()
    mutate(cert)
    with pytest.raises(CertificateError):
        verify_certificate(cert)


def test_verify_rejects_unreadable_files(tmp_path):
    with pytest.raises(CertificateError):
        verify_certificate(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CertificateError):
        verify_certificate(str(bad))


def test_substitution_residual_bound():
    for (lx, kx), (ly, ky), t in [
        (("A(3)", 1), ("A(3)", 2), 2),
        (("B(4)", 1), ("B(4)", 4), 2),
        (("binI", 1), ("binI", 2), 6),
        (("H3", 2), ("H3", 3), 3),
    ]:
        sol = solve_union(_orbit(lx, kx), _orbit(ly, ky), t)
        for root in sol.roots:
            assert root.residual <= 1e-9 * float(welch_constant(
                "C" if lx.startswith("bin") else "R",
                sol.union.dim if sol.union is not None else 2, t))
