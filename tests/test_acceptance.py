"""Acceptance gate: one test per criterion, at the stated tolerances.

Each criterion has a wall-clock budget asserted alongside its content checks
and finishes by printing a single [PASS] line (visible under pytest -s; under
plain pytest the per-test PASSED/FAILED line serves the same purpose).
"""
from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

import exact_oracle as oracle
from orbitdesigns import (
    build_group,
    catalog_entry,
    cross_matrix,
    orbit_lines,
    parse_vector,
    scan,
    solve_union,
    strength,
    welch_constant,
)
from orbitdesigns.cli import main


class _Budget:
    def __init__(self, seconds: float, label: str):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"{self.label} took {elapsed:.1f}s, budget {self.seconds}s")
            print(f"[PASS] {self.label} ({elapsed:.2f}s)")


def _orbit(label, ref):
    g = build_group(label)
    if isinstance(ref, str) and ref.startswith("@"):
        seed = np.asarray(catalog_entry(label).seeds[int(ref[1:]) - 1])
    else:
        seed = parse_vector(ref)
    return orbit_lines(g, seed)


def _frac(s):
    return Fraction(s)


def _assert_row(label, sx, sy, t, beta, w_hat, expect_strength=None):
    X, Y = _orbit(label, sx), _orbit(label, sy)
    sol = solve_union(X, Y, t)
    root = sol.root
    assert root is not None, f"{label} ({sx};{sy}) t={t}: no root"
    assert root.beta == tuple(map(_frac, beta)), f"{label}: beta {root.beta}"
    assert root.w_hat == tuple(map(_frac, w_hat)), f"{label}: w_hat {root.w_hat}"
    assert abs(sol.verified.residual_at(t)) <= 1e-9
    if expect_strength is not None:
        assert sol.verified.strength == expect_strength
    return sol


def test_criterion_01_welch_constants():
    with _Budget(1.0, "criterion 1: Welch constants"):
        assert welch_constant("C", 2, 2) == Fraction(1, 3)
        assert welch_constant("R", 2, 3) == Fraction(5, 16)
        for d in range(1, 9):
            for t in range(1, 13):
                for field in ("R", "C"):
                    assert welch_constant(field, d, t) == oracle.welch(field, d, t), \
                        (field, d, t)


def test_criterion_02_symmetric_table():
    rows = [
        ("G(1,1,4)", "1,1,-1,-1", "3,-1,-1,-1", 2, ("2/5", "3/5"), ("14/15", "21/20")),
        ("G(1,1,5)", "4,-1,-1,-1,-1", "2,2,2,-3,-3", 2, ("2/5", "3/5"), ("6/5", "9/10")),
        ("G(1,1,6)", "5,-1,-1,-1,-1,-1", "1,1,1,-1,-1,-1", 2,
         ("5/14", "9/14"), ("20/21", "36/35")),
        ("G(1,1,6)", "5,-1,-1,-1,-1,-1", "2,2,-1,-1,-1,-1", 2,
         ("5/21", "16/21"), ("5/6", "16/15")),
    ]
    with _Budget(10.0, "criterion 2: symmetric-group weightings"):
        for label, sx, sy, t, beta, w_hat in rows:
            _assert_row(label, sx, sy, t, beta, w_hat)


def test_criterion_03_hyperoctahedral_table():
    rows = [
        ("G(2,1,2)", "1,0", "1,1", 2, ("1/2", "1/2"), ("1", "1"), 3),
        ("G(2,1,3)", "1,0,0", "1,1,1", 2, ("2/5", "3/5"), ("14/15", "21/20"), None),
        ("G(2,1,3)", "1,0,0", "1,1,0", 2, ("1/5", "4/5"), ("3/5", "6/5"), None),
        ("G(2,1,4)", "1,0,0,0", "1,1,1,1", 2, ("1/3", "2/3"), ("1", "1"), None),
        ("G(2,1,4)", "1,0,0,0", "1,1,1,0", 2, ("1/4", "3/4"), ("5/4", "15/16"), None),
        ("G(2,1,5)", "1,0,0,0,0", "1,1,1,1,1", 2, ("2/7", "5/7"), ("6/5", "15/16"), None),
        ("G(2,1,5)", "1,0,0,0,0", "1,1,1,0,0", 2, ("1/7", "6/7"), ("9/7", "27/28"), 3),
    ]
    with _Budget(60.0, "criterion 3: hyperoctahedral weightings"):
        for label, sx, sy, t, beta, w_hat, expect in rows:
            sol = _assert_row(label, sx, sy, t, beta, w_hat, expect)
            if expect == 3:
                # the strength interval rows: design through t = 3, not t = 4
                assert abs(sol.verified.residual_at(4)) > 1e-9
        # the 12-line middle orbit needs no partner at t = 2
        rep = strength(_orbit("G(2,1,4)", "1,1,0,0"), t_max=4)
        assert rep.strength >= 2


def test_criterion_04_even_sign_negative_result():
    with _Budget(10.0, "criterion 4: even-sign 4-orbit pair has no weighting"):
        sol = solve_union(_orbit("G(2,2,4)", "1,0,0,0"), _orbit("G(2,2,4)", "1,1,1,1"), 2)
        assert sol.empty
        assert main(["union", "G(2,2,4)", "--x", "1,0,0,0", "--y", "1,1,1,1",
                     "--t", "2"]) == 2
        middle = _orbit("G(2,2,4)", "1,1,0,0")
        assert middle.n_lines == 12
        assert strength(middle, t_max=4).strength >= 2


def test_criterion_05_binary_polyhedral_scans():
    expect = {
        "binT": (2, (3, 3)),
        "binO": (3, (4, 5)),
        "binI": (5, (6, 9)),
        "binD(4)": (1, None),
    }
    with _Budget(60.0, "criterion 5: binary polyhedral scan windows"):
        for label, (t_generic, t_pairs) in expect.items():
            rep = scan(build_group(label), t_max=10, samples=20, seed=0)
            assert rep.t_generic == t_generic, label
            assert rep.t_pairs == t_pairs, label
            for t in range(1, t_generic + 1):
                assert rep.verdict_at(t) == "degenerate"
                assert rep.unanimous[t - 1], (label, t)
            if t_pairs is not None:
                for t in range(t_pairs[0], t_pairs[1] + 1):
                    assert rep.verdict_at(t) == "holds"
                    assert rep.unanimous[t - 1], (label, t)


def test_criterion_06_icosahedral_rows_and_doubling():
    with _Budget(300.0, "criterion 6: H3/H4 rows, 360-line design, 19-design doubling"):
        h3 = solve_union(_orbit("H3", "@1"), _orbit("H3", "@2"), 3)
        assert h3.root.beta == (Fraction(5, 14), Fraction(9, 14))
        assert h3.verified.strength == 4

        X, Y = _orbit("H4", "@1"), _orbit("H4", "@2")
        assert (X.n_lines, Y.n_lines) == (60, 300)
        h4 = solve_union(X, Y, 9)
        assert h4.root.w_hat == (Fraction(10, 7), Fraction(32, 35))
        assert h4.union.n_lines == 360
        assert h4.union.field == "R"
        # a real (9,9)-design: doubled to its 720 vectors +-x, it is a
        # spherical 2*9+1 = 19-design (odd moments cancel in +-x pairs)
        assert h4.verified.strength == 9


def test_criterion_07_discriminant_structure():
    unions = [
        ("G(1,1,4)", "1,1,-1,-1", "3,-1,-1,-1", 2),
        ("G(1,1,5)", "4,-1,-1,-1,-1", "2,2,2,-3,-3", 2),
        ("G(1,1,6)", "5,-1,-1,-1,-1,-1", "1,1,1,-1,-1,-1", 2),
        ("G(1,1,6)", "5,-1,-1,-1,-1,-1", "2,2,-1,-1,-1,-1", 2),
        ("G(2,1,2)", "1,0", "1,1", 2),
        ("G(2,1,3)", "1,0,0", "1,1,1", 2),
        ("G(2,1,3)", "1,0,0", "1,1,0", 2),
        ("G(2,1,4)", "1,0,0,0", "1,1,1,1", 2),
        ("G(2,1,4)", "1,0,0,0", "1,1,1,0", 2),
        ("G(2,1,5)", "1,0,0,0,0", "1,1,1,1,1", 2),
        ("G(2,1,5)", "1,0,0,0,0", "1,1,1,0,0", 2),
        ("H3", "@1", "@2", 3),
        ("H3", "@1", "@3", 3),
        ("H3", "@2", "@3", 3),
        ("H4", "@1", "@2", 9),
    ]
    with _Budget(120.0, "criterion 7: double-root identity on every solved union"):
        for label, sx, sy, t in unions:
            sol = solve_union(_orbit(label, sx), _orbit(label, sy), t)
            assert sol.root is not None, (label, sx, sy)
            assert not sol.degenerate
            assert sol.identity_residual <= 1e-8, (label, sol.identity_residual)
            q = sol.quad
            agreement = abs(float(sol.root.beta[0]) - (q.b_yy - q.b_xy) / q.a)
            assert agreement <= 1e-9, (label, agreement)


def test_criterion_08_cross_orbit_identity():
    pairs = [
        ("binT", "@1", "@2", 2),
        ("binO", "@1", "@2", 3),
        ("binO", "@1", "@3", 3),
        ("binI", "@1", "@2", 5),
        ("binI", "@2", "@3", 5),
        ("H4", "@1", "@2", 5),
    ]
    with _Budget(120.0, "criterion 8: cross-potential of certified design pairs"):
        assert len(pairs) >= 5
        for label, sx, sy, t in pairs:
            X, Y = _orbit(label, sx), _orbit(label, sy)
            # certify each side independently before using the identity
            assert strength(X, t_max=t).strength >= t, (label, sx)
            assert strength(Y, t_max=t).strength >= t, (label, sy)
            c_t = float(welch_constant(X.field, X.dim, t))
            assert abs(cross_matrix([X, Y], t)[t - 1, 0, 1] - c_t) <= 1e-9 * c_t, label


def test_criterion_09_exact_oracle_equivalence():
    seeds = {
        "A(3)": [(1, 1, -1, -1), (3, -1, -1, -1)],
        "B(2)": [(1, 0), (1, 1)],
        "B(3)": [(1, 0, 0), (1, 1, 0), (1, 1, 1)],
        "D(3)": [(1, 0, 0), (1, 1, 0), (1, 1, 1)],
    }

    def close(fl, ex):
        return abs(fl - float(ex)) <= 1e-12 * max(1.0, abs(float(ex)))

    with _Budget(60.0, "criterion 9: exact rational oracle agreement"):
        for label, group_seeds in seeds.items():
            elements, d = oracle.oracle_group(label)
            g = build_group(label)
            exact_orbits = [oracle.orbit(elements, s) for s in group_seeds]
            float_orbits = [
                orbit_lines(g, np.array(s, dtype=float)) for s in group_seeds
            ]
            for X, eX in zip(float_orbits, exact_orbits):
                assert X.n_lines == len(eX)
            for i in range(len(group_seeds)):
                for j in range(i + 1, len(group_seeds)):
                    for t in range(1, 5):
                        q = solve_union(float_orbits[i], float_orbits[j], t, t_max=t).quad
                        ea, eb, ec, exx, eyy, exy = oracle.quadratic(
                            exact_orbits[i], exact_orbits[j], d, t)
                        assert close(q.b_xx, exx), (label, i, j, t)
                        assert close(q.b_yy, eyy), (label, i, j, t)
                        assert close(q.b_xy, exy), (label, i, j, t)
                        assert close(q.a, ea), (label, i, j, t)
                        assert close(q.b, eb), (label, i, j, t)
                        assert close(q.c, ec), (label, i, j, t)
        # the oracle independently rederives tabulated double roots
        elements, d = oracle.oracle_group("A(3)")
        a, b, c, *_ = oracle.quadratic(
            oracle.orbit(elements, (1, 1, -1, -1)),
            oracle.orbit(elements, (3, -1, -1, -1)), d, 2)
        assert b * b - 4 * a * c == 0
        assert oracle.double_root(a, b, c) == Fraction(2, 5)
        elements, d = oracle.oracle_group("D(3)")
        a, b, c, *_ = oracle.quadratic(
            oracle.orbit(elements, (1, 1, 1)),
            oracle.orbit(elements, (1, 1, 0)), d, 2)
        assert b * b - 4 * a * c == 0
        assert oracle.double_root(a, b, c) == Fraction(-3, 5)


def test_criterion_10_heisenberg_negative_result():
    with _Budget(30.0, "criterion 10: Heisenberg pairs fail at t = 2"):
        for label in ("heis(3)", "heis(4)"):
            rep = scan(build_group(label), t_max=3, samples=20, seed=0)
            assert rep.t_pairs is None, label
            assert rep.verdict_at(2) == "fails"
            assert rep.unanimous[1], label
            for record in rep.sample_records:
                assert record.verdicts[1] == "fails", label
