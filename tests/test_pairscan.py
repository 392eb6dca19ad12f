"""Randomized two-orbit identity scan and its building blocks."""
from __future__ import annotations

import json

import numpy as np
import pytest

from orbitdesigns import (
    build_group,
    f_G,
    orbit_lines,
    p_G,
    pairs_identity_holds,
    potential,
    scan,
    welch_constant,
)


def _unit(rng, dim, field):
    v = rng.standard_normal(dim)
    if field == "C":
        v = v + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


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
    assert pairs_identity_holds(gI, _unit(rng, 2, "C"), _unit(rng, 2, "C"), 7)
    g224 = build_group("G(2,2,4)")
    assert not pairs_identity_holds(g224, _unit(rng, 4, "R"), _unit(rng, 4, "R"), 2)
    gh = build_group("heis(4)")
    assert not pairs_identity_holds(gh, _unit(rng, 4, "C"), _unit(rng, 4, "C"), 2)


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
