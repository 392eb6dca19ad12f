"""Randomized two-orbit identity scan and its building blocks."""
from __future__ import annotations

import json

import numpy as np
import pytest

from orbitdesigns import (
    DEFAULT_TOL,
    build_group,
    check_double_root,
    orbit_lines,
    potential,
    scan,
    solve_union,
    welch_constant,
)
from orbitdesigns.cli import _load_expectations, _resolve_seed
from orbitdesigns.pairscan import _classify, _p_G, _p_triple


def _unit(rng, dim, field):
    v = rng.standard_normal(dim)
    if field == "C":
        v = v + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def p_G(group, x, y, t):
    return _p_G(group, x, y, [t])[0]


def f_G(group, x, y, t):
    """p_G(x,x,t) p_G(y,y,t) - p_G(x,y,t)^2, the identity's left side."""
    (p_xx,), (p_yy,), (p_xy,) = _p_triple(group, x, y, [t])
    return p_xx * p_yy - p_xy * p_xy


def _verdict(group, x, y, t):
    (p_xx,), (p_yy,), (p_xy,) = _p_triple(group, x, y, [t])
    return _classify(p_xx, p_yy, p_xy, float(welch_constant(group.field, group.dim, t)))


@pytest.fixture(scope="module")
def trivial_group(tmp_path_factory):
    path = tmp_path_factory.mktemp("trivial") / "id.json"
    path.write_text(json.dumps({"field": "R", "generators": [[[1, 0], [0, 1]]]}))
    return build_group(f"explicit:{path}")


def test_p_trivial_group(trivial_group):
    x = np.array([0.6, 0.8])
    assert abs(p_G(trivial_group, x, x, 3) - 1.0) <= 1e-15
    y = np.array([1.0, 0.0])
    assert abs(p_G(trivial_group, x, y, 1) - 0.36) <= 1e-15


@pytest.mark.parametrize("label", ["dihedral(3)", "binO", "heis(3)"])
def test_p_at_order_one_is_tight_frame_constant(label):
    # for any pair of unit vectors the t = 1 moment is 1/d
    g = build_group(label)
    rng = np.random.default_rng(11)
    x = _unit(rng, g.dim, g.field)
    y = _unit(rng, g.dim, g.field)
    assert abs(p_G(g, x, y, 1) - 1.0 / g.dim) <= 1e-12


def test_p_diagonal_matches_orbit_design_constant():
    g = build_group("dihedral(3)")
    rng = np.random.default_rng(3)
    x = _unit(rng, 2, "R")
    c2 = float(welch_constant("R", 2, 2))
    assert c2 == 3.0 / 8.0
    assert abs(p_G(g, x, x, 2) - c2) <= 1e-12


@pytest.mark.parametrize("label", ["H3", "binO"])
def test_p_diagonal_is_orbit_potential(label):
    # every orbit line is hit |G|/n times, so the element average p_G(x,x,t)
    # equals the orbit's potential; the scan reads orbit strength off it
    g = build_group(label)
    x = _unit(np.random.default_rng(3), g.dim, g.field)
    X = orbit_lines(g, x)
    for t in range(1, 9):
        expect = potential(X, t)
        assert abs(p_G(g, x, x, t) - expect) <= 4 * t * np.finfo(float).eps * expect


def test_f_vanishes_on_shared_orbits():
    g = build_group("dihedral(5)")
    rng = np.random.default_rng(5)
    x = _unit(rng, 2, "R")
    y = g.elements[3] @ x
    for t in (1, 2, 3, 6):
        assert abs(f_G(g, x, y, t)) <= 1e-12


def test_f_vanishes_when_both_orbits_are_designs():
    g = build_group("dihedral(3)")
    rng = np.random.default_rng(9)
    x, y = _unit(rng, 2, "R"), _unit(rng, 2, "R")
    assert abs(f_G(g, x, y, 2)) <= 1e-12


def test_f_is_nonnegative_product_form():
    g = build_group("dihedral(3)")
    rng = np.random.default_rng(13)
    for _ in range(5):
        x, y = _unit(rng, 2, "R"), _unit(rng, 2, "R")
        val = f_G(g, x, y, 3)
        assert val > 1e-10


def test_identity_verdicts_on_random_pairs():
    rng = np.random.default_rng(0)
    gI = build_group("binI")
    verdict, residual = _verdict(gI, _unit(rng, 2, "C"), _unit(rng, 2, "C"), 7)
    assert verdict == "holds" and residual <= DEFAULT_TOL.rel_eq
    g224 = build_group("G(2,2,4)")
    assert _verdict(g224, _unit(rng, 4, "R"), _unit(rng, 4, "R"), 2)[0] == "indeterminate"
    gh = build_group("heis(4)")
    assert _verdict(gh, _unit(rng, 4, "C"), _unit(rng, 4, "C"), 2)[0] == "fails"


def _union_cases():
    for row in _load_expectations():
        if row["seedY"]:
            yield row["group"], row["seedX"], row["seedY"], int(row["t"])
    yield "dihedral(3)", "@1", "@2", 2  # a pair of designs: degenerate


def test_double_root_check_agrees_with_scan_verdict():
    # check_double_root and the scan classify the same identity on the same
    # potentials, so their holds and degenerate flags agree
    for label, sx, sy, t in _union_cases():
        g = build_group(label)
        X, Y = (orbit_lines(g, _resolve_seed(label, s)[0]) for s in (sx, sy))
        sol = solve_union(X, Y, t, t_max=t)
        q = sol.quad
        verdict, _ = _classify(q.b_xx, q.b_yy, q.b_xy, float(q.c_t))
        chk = check_double_root(sol)
        expect = (verdict in ("holds", "degenerate"), verdict == "degenerate")
        assert (chk.holds, chk.degenerate) == expect, (label, sx, sy, t, verdict)


def test_scan_binary_octahedral():
    rep = scan(build_group("binO"), t_max=6, samples=10, seed=0)
    assert rep.t_generic == 3
    assert rep.t_pairs == (4, 5)


def test_scan_odd_dihedral_window():
    rep = scan(build_group("dihedral(10)"), t_max=10, samples=8, seed=0)
    assert rep.t_generic == 4
    assert rep.t_pairs == (5, 9)
    for t in range(5, 10):
        assert rep.verdict_at(t) == "holds"
        assert rep.unanimous[t - 1]


def test_scan_even_dihedral_window():
    rep = scan(build_group("dihedral(4)"), t_max=4, samples=8, seed=0)
    assert rep.t_generic == 1
    assert rep.t_pairs == (2, 3)


def test_scan_rotation_group_has_no_pair_window():
    rep = scan(build_group("rot(5)"), t_max=6, samples=8, seed=0)
    assert rep.t_generic == 4
    assert rep.t_pairs is None
    assert rep.verdict_at(5) == "indeterminate"


def test_scan_survives_all_degenerate_orders():
    # every rot(5) pair is degenerate through t = 4, so the redraw budget
    # runs out and the scan reports what it saw
    rep = scan(build_group("rot(5)"), t_max=4, samples=4, seed=0)
    assert all(v == "degenerate" for v in rep.verdicts)
    assert rep.t_pairs is None
    assert max(r.redraws for r in rep.sample_records) == 8


def test_scan_heisenberg_fails_above_one():
    for label in ("heis(3)", "heis(4)"):
        rep = scan(build_group(label), t_max=3, samples=8, seed=0)
        assert rep.t_generic == 1
        assert rep.t_pairs is None
        assert rep.verdict_at(2) == "fails"
        assert rep.unanimous[1]


def test_scan_is_deterministic_for_a_seed():
    g = build_group("binT")
    a = scan(g, t_max=6, samples=6, seed=42)
    b = scan(g, t_max=6, samples=6, seed=42)
    assert a.verdicts == b.verdicts
    assert a.max_residuals == b.max_residuals
    assert [r.x.tolist() for r in a.sample_records] == [
        r.x.tolist() for r in b.sample_records
    ]


def test_scan_conclusions_are_seed_stable():
    g = build_group("binT")
    for seed in (0, 1, 2):
        rep = scan(g, t_max=6, samples=10, seed=seed)
        assert rep.t_generic == 2
        assert rep.t_pairs == (3, 3)


def test_scan_report_invariants():
    rep = scan(build_group("dihedral(3)"), t_max=6, samples=6, seed=0)
    assert rep.t_generic == 2
    assert rep.t_pairs == (3, 5)
    assert len(rep.verdicts) == 6
    assert rep.t_pairs[0] > rep.t_generic
    for record in rep.sample_records:
        assert len(record.verdicts) == 6
        # degenerate verdicts only where both sampled orbits are designs
        for t in range(1, 7):
            if record.verdicts[t - 1] == "degenerate":
                assert record.strength_x >= t
                assert record.strength_y >= t
