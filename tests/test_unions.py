"""Union quadratic: coefficients, the double root, certificates."""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import exact_oracle as oracle
from orbitdesigns import (
    CertificateError,
    MismatchError,
    NoSolutionError,
    build_group,
    catalog_entry,
    cross_matrix,
    emit_certificate,
    orbit_lines,
    parse_vector,
    solve_union,
    strength,
    union_lines,
    verify_certificate,
    welch_constant,
)
from orbitdesigns import numerics, unions
from orbitdesigns.cli import _load_expectations, _resolve_seed
from orbitdesigns.unions import IDENTITY_TOL


def _orbit(label, ref):
    entry = catalog_entry(label)
    seed = entry.seeds[ref - 1] if isinstance(ref, int) else np.asarray(ref)
    return orbit_lines(build_group(label), np.asarray(seed))


def test_pair_quadratic_identical_inputs():
    X = _orbit("B(3)", 2)
    q = solve_union(X, X, 3).quad
    assert abs(q.a) <= 1e-12
    assert abs(q.b) <= 1e-12
    assert abs(q.c - (q.b_xx - float(q.c_t))) <= 1e-15


def test_pair_quadratic_two_designs_degenerate():
    # both dihedral(3) orbits integrate t = 2, so A and C vanish
    X, Y = _orbit("dihedral(3)", 1), _orbit("dihedral(3)", 2)
    sol = solve_union(X, Y, 2)
    q = sol.quad
    scale = q.scale
    assert abs(q.a) <= 1e-12 * scale
    assert abs(q.c) <= 1e-12 * scale
    assert sol.degenerate
    assert not sol.empty
    assert sol.root is None
    assert sol.identity_residual is None


def test_pair_quadratic_mismatch():
    with pytest.raises(MismatchError):
        solve_union(_orbit("B(2)", 1), _orbit("B(3)", 1), 2)


def test_four_line_cross_root():
    sol = solve_union(_orbit("B(2)", 1), _orbit("B(2)", 2), 2)
    root = sol.root
    assert root.beta == (Fraction(1, 2), Fraction(1, 2))
    assert root.w_hat == (Fraction(1), Fraction(1))
    assert root.convex
    assert sol.verified.strength == 3


def test_symmetric_group_row():
    sol = solve_union(_orbit("A(3)", 1), _orbit("A(3)", 2), 2)
    root = sol.root
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
        root = sol.root
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
    assert sol.identity_residual > IDENTITY_TOL
    assert sol.root is None
    assert sol.verified is None


def test_design_partner_forces_boundary_root():
    # the icosahedral 6-line orbit already integrates t = 2, so B and C
    # vanish and the only root puts all weight on it
    X = _orbit("B(3)", 1)
    Y = _orbit("H3", 1)
    sol = solve_union(X, Y, 2)
    root = sol.root
    assert root.beta == (Fraction(0), Fraction(1))
    assert root.boundary
    assert sol.verified.strength == 2


def test_affine_relations_hold_exactly():
    for labels, t in [((("A(4)", 1), ("A(4)", 2)), 2),
                      ((("binI", 2), ("binI", 3)), 6),
                      ((("H4", 1), ("H4", 2)), 6)]:
        (lx, kx), (ly, ky) = labels
        X, Y = _orbit(lx, kx), _orbit(ly, ky)
        sol = solve_union(X, Y, t)
        root = sol.root
        assert root.beta[0] + root.beta[1] == 1
        assert (X.n_lines * root.w_hat[0] + Y.n_lines * root.w_hat[1]
                == X.n_lines + Y.n_lines)


def _closed_beta(q):
    """beta_X = (b_yy - b_xy)/A, the double root in closed form."""
    return (q.b_yy - q.b_xy) / q.a


def test_check_double_root_cross():
    sol = solve_union(_orbit("B(2)", 1), _orbit("B(2)", 2), 2)
    assert not sol.degenerate
    assert sol.identity_residual <= 1e-8
    assert abs(_closed_beta(sol.quad) - 0.5) <= 1e-9
    assert abs(_closed_beta(sol.quad) - sol.root.alpha) <= 1e-9


def test_check_double_root_icosahedral_pair():
    sol = solve_union(_orbit("H3", 1), _orbit("H3", 2), 3)
    assert sol.root.beta == (Fraction(5, 14), Fraction(9, 14))
    assert sol.identity_residual <= IDENTITY_TOL
    assert abs(_closed_beta(sol.quad) - 5.0 / 14.0) <= 1e-9


def test_check_double_root_degenerate_for_design_pair():
    sol = solve_union(_orbit("dihedral(3)", 1), _orbit("dihedral(3)", 2), 2)
    assert sol.degenerate
    assert sol.identity_residual is None
    assert sol.root is None


def test_check_double_root_on_coinciding_orbits():
    # X with itself: A = B = 0 and both sides of the identity are exactly 0,
    # so the identity holds, but with A = 0 no weighting makes X a design
    X = _orbit("B(3)", 2)
    sol = solve_union(X, X, 3)
    assert sol.quad.a == 0.0
    assert not sol.degenerate
    assert sol.identity_residual == 0.0
    assert sol.root is None and sol.empty


_ORACLE_SEEDS = {
    "A(3)": [(1, 1, -1, -1), (3, -1, -1, -1), (1, -1, 0, 0), (3, 1, -2, -2)],
    "B(2)": [(1, 0), (1, 1), (1, 2), (1, 3)],
    "B(3)": [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 2, 0), (1, 2, 3)],
    "D(3)": [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 2, 0), (1, 2, 3)],
}


def test_union_quadratic_is_nonnegative_in_exact_arithmetic():
    # the union potential is at least c_t for every real weighting, so
    # A >= 0 and B^2 - 4AC <= 0: a real root is a double root, and
    # solve_union finds it exactly when the exact discriminant vanishes
    outcomes = []
    for label, seeds in _ORACLE_SEEDS.items():
        elements, d = oracle.oracle_group(label)
        g = build_group(label)
        exact = [oracle.orbit(elements, s) for s in seeds]
        lines = [orbit_lines(g, np.array(s, dtype=float)) for s in seeds]
        for i in range(len(seeds)):
            for j in range(i + 1, len(seeds)):
                for t in range(1, 6):
                    a, b, c, b_xx, b_yy, _ = oracle.quadratic(exact[i], exact[j], d, t)
                    case = (label, seeds[i], seeds[j], t)
                    assert a >= 0 and b * b - 4 * a * c <= 0, case
                    sol = solve_union(lines[i], lines[j], t, t_max=t)
                    c_t = oracle.welch("R", d, t)
                    if b_xx == c_t and b_yy == c_t:
                        assert sol.degenerate, case
                        outcomes.append("degenerate")
                    elif b * b - 4 * a * c == 0 and a != 0:
                        assert sol.root.beta[0] == oracle.double_root(a, b, c), case
                        outcomes.append("root")
                    else:
                        assert sol.empty, case
                        outcomes.append("none")
    assert [outcomes.count(k) for k in ("degenerate", "root", "none")] == [32, 36, 92]


@pytest.mark.parametrize("t", [6, 7, 8])
@pytest.mark.parametrize("x", [1, 2, 3])
def test_near_design_pair_has_its_double_root(x, t):
    # C = b_yy - c_t carries about 1e-9 relative cancellation on the 60-line
    # binI orbit, which a discriminant test relative to B^2 and 4AC misread
    # as "no real root"; the pair identity holds to rounding
    sol = solve_union(_orbit("binI", x), _orbit("binI", 4), t, t_max=t)
    assert sol.root is not None
    assert sol.identity_residual < 1e-12


@pytest.mark.parametrize("x, y", [
    # float noise left B^2 - 4AC = +6.6e-20: two roots 1e-4 apart
    ("-1.5531767648845436+0.37256535014264275i,-0.8820079726267296+0.47305334074830474i",
     "-1.5363587182917429-0.3161422429105865i,-1.883463708541837-0.18805651607489748i"),
    # B^2 - 4AC = -3.7e-20 past a tolerance relative to B^2: "no real root"
    ("-1.553+0.373i,-0.882+0.473i", "-1.536-0.316i,-1.883-0.188i"),
])
def test_generic_binI_pair_has_one_double_root(x, y):
    # at t = 6 every binI pair satisfies the identity (one invariant harmonic)
    g = build_group("binI")
    sol = solve_union(orbit_lines(g, parse_vector(x)), orbit_lines(g, parse_vector(y)), 6,
                      t_max=6)
    assert sol.identity_residual < 1e-10
    assert abs(sol.root.alpha - _closed_beta(sol.quad)) <= 1e-9 * abs(sol.root.alpha)


def test_explicit_group_pairs(f4_path):
    g = build_group(f"explicit:{f4_path}")
    short12 = orbit_lines(g, np.array([1.0, 0.0, 0.0, 0.0]))
    long12 = orbit_lines(g, np.array([1.0, -1.0, 0.0, 0.0]))
    w48a = orbit_lines(g, np.array([2.0, 1.0, 1.0, 0.0]))
    w48b = orbit_lines(g, np.array([3.0, 1.0, 1.0, 1.0]))
    # the two root-line orbits pair with equal weight
    sol = solve_union(short12, long12, 3)
    assert sol.root.beta == (Fraction(1, 2), Fraction(1, 2))
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
            assert sol.root.beta == beta
            assert sol.verified.strength == 3
            assert sol.identity_residual <= IDENTITY_TOL


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


def test_complex_certificate_bytes(tmp_path):
    # each complex line entry is written as [float(re), float(im)], indent 1
    X, Y = _orbit("binI", 1), _orbit("binI", 2)
    sol = solve_union(X, Y, 6)
    path = tmp_path / "cert.json"
    cert = emit_certificate(sol, X, Y, path=str(path))
    lines = union_lines(X, Y, sol.root.beta).lines
    spelled = [[[float(z.real), float(z.imag)] for z in row] for row in lines]
    assert path.read_text() == json.dumps({**cert, "lines": spelled}, indent=1) + "\n"
    assert verify_certificate(str(path)).passed


def test_certificate_signed_union():
    X, Y = _orbit("binO", 2), _orbit("binO", 3)
    sol = solve_union(X, Y, 4)
    assert sol.root.beta == (Fraction(-3, 5), Fraction(8, 5))
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


def test_certificate_requires_a_snapped_root():
    X, Y = _orbit("dihedral(3)", 1), _orbit("dihedral(3)", 2)
    sol = solve_union(X, Y, 3)
    assert sol.root.beta is None and abs(sol.root.alpha - 0.3768) < 1e-4
    assert sol.verified is None
    with pytest.raises(NoSolutionError):
        emit_certificate(sol, X, Y)


_H4_PAIRS = [("H4", f"@{x}", f"@{y}", 6) for x, y in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]]
_ROOT_ROWS = [(r["group"], r["seedX"], r["seedY"], int(r["t"]))
              for r in _load_expectations() if r["seedY"] and r["betaX"]]
_UNION_ROWS = [(r["group"], r["seedX"], r["seedY"], int(r["t"]))
               for r in _load_expectations() if r["seedY"]]


@pytest.mark.parametrize("pair", _H4_PAIRS + [r for r in _ROOT_ROWS if r not in _H4_PAIRS])
def test_orbit_row_residuals_match_full_gram_sum(pair):
    # the certificate's residuals come from the orbits' cross matrix, verify's
    # from every row of the stored lines
    label, seed_x, seed_y, t = pair
    g = build_group(label)
    X, Y = (orbit_lines(g, _resolve_seed(label, s)[0]) for s in (seed_x, seed_y))
    cert = emit_certificate(solve_union(X, Y, t), X, Y)
    result = verify_certificate(cert)
    assert result.passed, result.reasons
    assert len(result.residuals) >= t
    for stored, recomputed in result.residuals.values():
        assert abs(stored - recomputed) <= 1e-12


def _bits(q):
    return [float(v).hex() for v in (q.a, q.b, q.c, q.b_xx, q.b_yy, q.b_xy)] + [q.c_t]


@pytest.mark.parametrize("pair", _H4_PAIRS + [r for r in _UNION_ROWS if r not in _H4_PAIRS])
def test_quadratic_bits_do_not_depend_on_t_max(pair):
    # solve_union reads its coefficients off a cross matrix taken up to
    # max(t, t_max), the orbit-row path for two orbits of one group
    label, seed_x, seed_y, t = pair
    g = build_group(label)
    X, Y = (orbit_lines(g, _resolve_seed(label, s)[0]) for s in (seed_x, seed_y))
    quads = [_bits(solve_union(X, Y, t, t_max).quad) for t_max in (t, 12, 15)]
    assert quads[0] == quads[1] == quads[2]
    (b_xx, b_xy), (b_yx, b_yy) = cross_matrix([X, Y], t)[t - 1]
    assert b_xy == b_yx
    assert quads[0][3:6] == [float(v).hex() for v in (b_xx, b_yy, b_xy)]


def test_stored_benchmark_certificates_verify():
    paths = sorted((Path(__file__).parents[1] / "perfbench" / "certificates").glob("*.json"))
    assert len(paths) == 4
    for path in paths:
        result = verify_certificate(str(path))
        assert result.passed, (path.name, result.reasons)


def test_verify_hands_fsum_bucket_sums_not_terms(monkeypatch):
    # 660 lines make 218,130 pairs per order; math.fsum must see only the
    # nonzero bucket sums of each order
    path = Path(__file__).parents[1] / "perfbench" / "certificates" / "h4_t6_x1_y4.json"
    seen = []
    fsum = numerics.math.fsum

    def counted(values):
        values = list(values)
        seen.append(len(values))
        return fsum(values)

    monkeypatch.setattr(numerics.math, "fsum", counted)
    result = verify_certificate(str(path))
    assert result.passed, result.reasons
    assert len(seen) == len(result.residuals) and sum(seen) < 50_000


def _fresh_cert():
    X, Y = _orbit("B(2)", 1), _orbit("B(2)", 2)
    return emit_certificate(solve_union(X, Y, 2), X, Y)


def _fresh_complex_cert():
    X, Y = _orbit("binO", 1), _orbit("binO", 3)
    return emit_certificate(solve_union(X, Y, 4), X, Y)


def test_float_weights_are_the_exact_weights_rounded(monkeypatch):
    # an orbit, a union and a verified certificate's set each read their
    # float weights from their Fractions
    X, Y = _orbit("binO", 2), _orbit("binO", 3)
    sol = solve_union(X, Y, 4)
    verified = []
    monkeypatch.setattr(unions, "strength",
                        lambda S, t_max: verified.append(S) or strength(S, t_max))
    assert verify_certificate(emit_certificate(sol, X, Y)).passed
    U = union_lines(X, Y, sol.root.beta)
    assert len(verified) == 1 and min(U.exact_weights) < 0
    for S in (X, U, verified[0]):
        assert S.weights.tolist() == [float(w) for w in S.exact_weights]


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


@pytest.mark.parametrize("name,signed", [("h4_t6_x2_y3.json", True), ("h4_t6_x1_y2.json", False)])
def test_verify_flags_a_false_signed_claim(name, signed):
    # x2_y3 has beta = (-48/77, 125/77); x1_y2 has positive weights
    path = Path(__file__).parents[1] / "perfbench" / "certificates" / name
    cert = json.loads(path.read_text())
    assert cert["signed"] is signed
    cert["signed"] = not signed
    result = verify_certificate(cert)
    assert not result.passed
    claim = "false" if signed else "true"
    some = "some" if signed else "no"
    assert result.reasons == (f"signed is {claim}, but {some} weight is negative",)


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
        lambda c: c["weights"].__setitem__(0, "1/0"),
        lambda c: c["weights"].__setitem__(0, "1e400"),
        lambda c: c.update(dim=0, lines=[[] for _ in c["lines"]]),
        lambda c: c["lines"][0].__setitem__(0, float("nan")),
        lambda c: c["lines"][0].__setitem__(0, float("inf")),
        lambda c: c["residuals"].__setitem__("1", float("nan")),
        lambda c: c["residuals"].__setitem__("1", float("inf")),
        # weights must be rational strings, line entries numbers but not bools
        lambda c: c.update(weights=[float(Fraction(w)) for w in c["weights"]]),
        lambda c: c["weights"].__setitem__(0, None),
        lambda c: c["weights"].__setitem__(0, True),
        lambda c: c["lines"][0].__setitem__(0, True),
        lambda c: c["lines"][0].__setitem__(0, None),
        lambda c: c["lines"][0].__setitem__(0, "1"),
        # a complex line entry is exactly [re, im]: the binO certificate replaces
        # the real one, then its first entry grows or shrinks
        lambda c: c.update(_fresh_complex_cert()) or c["lines"][0][0].extend([99.0, "junk"]),
        lambda c: c.update(_fresh_complex_cert()) or c["lines"][0][0].pop(),
    ],
)
def test_verify_rejects_structural_damage(mutate):
    cert = _fresh_cert()
    mutate(cert)
    with pytest.raises(CertificateError):
        verify_certificate(cert)


def test_verify_parses_each_weight_string_once():
    # the weights are read per distinct string: the first bad one in file
    # order is named, and a repeated weight counts once per line in the sum
    cert = _fresh_cert()
    assert cert["weights"] == ["1/4"] * 4
    cert["weights"][1], cert["weights"][3] = "x/4", "y/4"
    with pytest.raises(CertificateError, match="'x/4'"):
        verify_certificate(cert)
    cert["weights"][1], cert["weights"][3] = "1/4", "1/5"
    assert "weights sum to 19/20, not 1" in verify_certificate(cert).reasons


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
        X, Y = _orbit(lx, kx), _orbit(ly, ky)
        sol = solve_union(X, Y, t)
        assert sol.root.residual <= 1e-9 * float(welch_constant(X.field, X.dim, t))
