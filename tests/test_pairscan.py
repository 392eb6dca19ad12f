"""Two-orbit identity scan: invariant counts, sampled pairs and building blocks."""
from __future__ import annotations

import json
import types

import numpy as np
import pytest

from orbitdesigns import (
    ConsistencyError,
    InputError,
    build_group,
    orbit_lines,
    scan,
    solve_union,
    strength,
    welch_constant,
)
from orbitdesigns.cli import _load_expectations, _resolve_seed
from orbitdesigns.numerics import REL_EQ
from orbitdesigns.pairscan import _classify, _harmonic_invariants, _p_G


def _unit(rng, dim, field):
    v = rng.standard_normal(dim)
    if field == "C":
        v = v + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def p_G(group, x, y, t):
    return _p_G(group, x, y, t)[t - 1]


def f_G(group, x, y, t):
    """p_G(x,x,t) p_G(y,y,t) - p_G(x,y,t)^2, the identity's left side."""
    p_xx, p_yy, p_xy = p_G(group, x, x, t), p_G(group, y, y, t), p_G(group, x, y, t)
    return p_xx * p_yy - p_xy * p_xy


def _verdict(group, x, y, t):
    p_xx, p_yy, p_xy = p_G(group, x, x, t), p_G(group, y, y, t), p_G(group, x, y, t)
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
    for t, expect in enumerate(strength(X, 8).potentials, start=1):
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
    assert verdict == "holds" and residual <= REL_EQ
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
    # solve_union and the scan test the same identity on the same potentials
    # with one tolerance: "holds" is a root, "degenerate" a degenerate pair
    for label, sx, sy, t in _union_cases():
        g = build_group(label)
        X, Y = (orbit_lines(g, _resolve_seed(label, s)[0]) for s in (sx, sy))
        sol = solve_union(X, Y, t, t_max=t)
        q = sol.quad
        verdict, _ = _classify(q.b_xx, q.b_yy, q.b_xy, float(q.c_t))
        expect = (verdict == "holds", verdict == "degenerate")
        assert (sol.root is not None, sol.degenerate) == expect, (label, sx, sy, t, verdict)


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
    # cos(10 theta) and sin(10 theta) are both rot(5)-invariant: two
    # conditions on one weight, so a generic pair fails at t = 5
    rep = scan(build_group("rot(5)"), t_max=6, samples=8, seed=0)
    assert rep.harmonic_invariants == (0, 0, 0, 0, 2, 0)
    assert rep.t_generic == 4
    assert rep.t_pairs is None
    assert rep.verdict_at(5) == "fails"


def test_scan_survives_all_degenerate_orders():
    # every rot(5) orbit is a 4-design, so every pair is degenerate through t = 4
    rep = scan(build_group("rot(5)"), t_max=4, samples=4, seed=0)
    assert all(v == "degenerate" for v in rep.verdicts)
    assert all(rep.unanimous)
    assert rep.t_generic == 4
    assert rep.t_pairs is None


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
                c_t = float(welch_constant("R", 2, t))
                for p in (record.p_xx[t - 1], record.p_yy[t - 1]):
                    assert abs(p - c_t) <= REL_EQ * c_t


@pytest.mark.parametrize("kwargs,message", [
    ({"samples": 0}, "samples must be >= 1"),
    ({"t_max": 0}, "t_max must be >= 1"),
    ({"seed": -1}, "seed must be >= 0"),
])
def test_scan_rejects_bad_arguments(kwargs, message):
    with pytest.raises(InputError, match=message):
        scan(build_group("binT"), **kwargs)


def _degree_series(degrees, t_max):
    """Coefficients of s^2, s^4, ..., s^(2 t_max) in prod_{i >= 2} 1/(1 - s^d_i)."""
    coeffs = [1] + [0] * (2 * t_max)
    for d in degrees[1:]:  # the quadratic invariant |x|^2 is not harmonic
        for n in range(d, len(coeffs)):
            coeffs[n] += coeffs[n - d]
    return coeffs[2::2]


@pytest.mark.parametrize("label, degrees", [
    ("A(4)", (2, 3, 4, 5)),
    ("B(5)", (2, 4, 6, 8, 10)),
    ("D(4)", (2, 4, 4, 6)),
    ("H3", (2, 6, 10)),
    ("H4", (2, 12, 20, 30)),
    ("dihedral(7)", (2, 7)),
])
def test_harmonic_invariants_match_coxeter_degrees(label, degrees):
    # a reflection group's invariants are free on forms of the degrees d_i
    assert _harmonic_invariants(build_group(label), 10) == _degree_series(degrees, 10)


def test_harmonic_invariants_of_explicit_f4(f4_path):
    g = build_group(f"explicit:{f4_path}")
    assert _harmonic_invariants(g, 10) == _degree_series((2, 6, 8, 12), 10)


def test_harmonic_invariants_binary_icosahedral():
    # the icosahedral invariants on the sphere CP^1 have degrees 6, 10, 12, ...
    assert _harmonic_invariants(build_group("binI"), 10) == [0, 0, 0, 0, 0, 1, 0, 0, 0, 1]


def test_harmonic_invariants_reject_a_non_group():
    c, s = np.cos(1.0), np.sin(1.0)
    fake = types.SimpleNamespace(elements=np.array([[[c, -s], [s, c]]]), field="R",
                                 spec="rotation by 1 rad")
    with pytest.raises(ConsistencyError, match="miss an integer"):
        _harmonic_invariants(fake, 3)


@pytest.mark.parametrize("label, seed, t_generic, t_pairs", [
    ("binI", 2, 5, (6, 9)),  # a near-design pair used to exit 3 ("f vanished")
    ("binI", 12, 5, (6, 9)),
    ("H4", 134, 5, (6, 9)),
    ("H4", 86, 5, (6, 9)),  # an indeterminate sample used to drop t_pairs
    ("B(5)", 732, 1, (2, 2)),
])
def test_scan_regressions(label, seed, t_generic, t_pairs):
    rep = scan(build_group(label), seed=seed)
    assert (rep.t_generic, rep.t_pairs) == (t_generic, t_pairs)
    assert rep.verdict_at(t_pairs[1] + 1) == "fails"


def test_near_design_pair_is_not_degenerate():
    # the binI seed-2 sample 2 misses the 6-design by about 1e-3 on both
    # orbits, so both sides of the identity are tiny, yet neither is a design
    rec = scan(build_group("binI"), seed=2).sample_records[2]
    c6 = float(welch_constant("C", 2, 6))
    verdict, residual = _classify(rec.p_xx[5], rec.p_yy[5], rec.p_xy[5], c6)
    assert abs(rec.p_xx[5] - c6) > 1e-4 * c6
    # S_6 = 1, so the identity holds exactly; formed from the deviations
    # p - c_6 its residual stays far below the hold band
    assert verdict == "holds"
    assert residual < 1e-8


def test_scan_raises_on_a_contradicting_sample(monkeypatch):
    # heis(3) pairs fail at t = 2; counts that call every pair degenerate
    # there are contradicted by the first sample
    monkeypatch.setattr("orbitdesigns.pairscan._harmonic_invariants", lambda g, t: [0] * t)
    with pytest.raises(ConsistencyError, match="sample 0 is fails at t=2"):
        scan(build_group("heis(3)"), t_max=3, samples=2, seed=0)
