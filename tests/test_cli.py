"""Command-line surface: payloads, exit codes, reproduction driver."""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from orbitdesigns import cli, groups, unions
from orbitdesigns.cli import main
from orbitdesigns.groups import build_generators, parse_group_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_group_summary(capsys):
    code, payload = run_json(capsys, "group", "G(2,1,4)")
    assert code == 0
    assert payload["order"] == 384
    assert payload["dim"] == 4
    assert payload["field"] == "R"
    assert payload["unitarity_deviation"] <= 1e-9


def test_group_reports_the_margin_its_generators_were_admitted_by(capsys):
    # the largest ||g*g - I|| over the generators, the number held against
    # REL_EQ when the group is built
    code, payload = run_json(capsys, "group", "binO")
    assert code == 0
    gens = build_generators(parse_group_spec("binO"))
    margin = max(float(np.abs(g.conj().T @ g - np.eye(2)).max()) for g in gens)
    assert payload["unitarity_deviation"] == margin
    assert f"{margin:.3e}" == "2.232e-16"


def test_group_closes_once(capsys, closures, f4_path):
    specs = ["H4", f"explicit:{f4_path}"]
    for spec, order in zip(specs, [14400, 1152]):
        code, payload = run_json(capsys, "group", spec)
        assert (code, payload["order"]) == (0, order)
    assert [str(s) for s in closures] == specs


def test_group_complex_summary(capsys):
    code, payload = run_json(capsys, "group", "binI")
    assert code == 0
    assert payload["order"] == 120
    assert payload["field"] == "C"


def test_group_rejects_degenerate_family(capsys):
    assert main(["group", "G(3,3,1)"]) == 3


def test_group_closure_key_split_exit(capsys, dedup_digits):
    # at 13 digits copies of one A(5) element round to distinct keys; the
    # closure used to report order 763 for this group of order 720
    dedup_digits(13)
    assert main(["group", "A(5)"]) == 3
    err = capsys.readouterr().err
    assert "passes its order 720" in err
    assert "split into distinct dedup keys at 13 digits" in err


def test_group_closure_key_split_at_max_order_exit(capsys, dedup_digits, max_order):
    # max_order equal to |H4| must not turn the key split into a size limit
    dedup_digits(15)
    max_order(14400)
    assert main(["group", "H4"]) == 3
    err = capsys.readouterr().err
    assert "passes its order 14400" in err
    assert "split into distinct dedup keys at 15 digits" in err
    max_order(100)
    assert main(["group", "H4"]) == 4


@pytest.mark.parametrize("argv,limit,lines", [
    (["orbit", "B(8)", "--seed", "1,1,1,1,1,1,1,1"], 200_000, 128),  # |B(8)| = 10,321,920
    (["orbit", "H4", "--seed", "@1"], 1000, 60),
], ids=["argv0-128", "argv1-60"])
def test_max_order_bounds_only_the_walk_that_runs(capsys, max_order, argv, limit, lines):
    max_order(limit)
    code, payload = run_json(capsys, *argv)
    assert code == 0 and payload["lines"] == lines


def test_orbit_passing_max_order_is_a_size_limit(capsys, max_order):
    # a generic H4 orbit has 7200 lines
    max_order(1000)
    assert main(["orbit", "H4", "--seed", "1,2,3,4"]) == 4
    assert "orbit of H4 passes max_order=1000 lines" in capsys.readouterr().err


@pytest.mark.parametrize("argv,err", [
    # |B(20)| passes max_order: the closure is refused before it walks
    (["group", "B(20)"], "resource error: closure of B(20) exceeds max_order=200000\n"),
    (["scan", "B(20)"], "resource error: closure of B(20) exceeds max_order=200000\n"),
    # B(1000)'s generators alone would be 8 GB: refused before they are built
    (["orbit", "B(1000)", "--seed", ",".join(["1"] + ["0"] * 999)],
     "resource error: B(1000) exceeds max_order=200000: its order does, "
     "and so does its dimension 1000 squared\n"),
    # |B(300)| passes max_order and its dimension squared does not: the
    # closure is refused before its 300 generators of 300x300 are built
    (["group", "B(300)"], "resource error: closure of B(300) exceeds max_order=200000\n"),
    (["scan", "B(300)"], "resource error: closure of B(300) exceeds max_order=200000\n"),
])
def test_family_above_max_order_fails_at_once(capsys, monkeypatch, argv, err):
    built = []  # the specs whose generators are built; none, even if a test cached them
    groups._build_cached.cache_clear()
    monkeypatch.setattr(groups, "build_generators",
                        lambda spec: built.append(spec) or build_generators(spec))
    assert main(argv) == 4
    assert capsys.readouterr().err == err
    assert built == []


@pytest.mark.parametrize("command", ["group", "scan"])
def test_closure_passing_max_order_partway_is_a_size_limit(capsys, max_order, f4_path,
                                                           command):
    # an explicit group has no closed-form order to refuse at once: its
    # closure walk stops in the batch that passes the limit (|F4| = 1152)
    max_order(100)
    assert main([command, f"explicit:{f4_path}"]) == 4
    assert capsys.readouterr().err == (f"resource error: closure of explicit:{f4_path} "
                                       "exceeds max_order=100\n")


def test_family_too_large_to_build_is_refused_before_its_order():
    # B(10^8)'s order, 2^(10^8) (10^8)!, was computed before its dimension was
    # compared: the command ran for minutes before it exited 4
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "orbitdesigns.cli", "group", "B(100000000)"],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 4
    assert proc.stderr == ("resource error: B(100000000) exceeds max_order=200000: its order "
                           "does, and so does its dimension 100000000 squared\n")


def test_orbit_past_max_order_forms_its_images_in_batches():
    # the last round of this walk has about 10^5 lines of 30 entries; formed
    # under all 30 generators at once, their images alone took 700 MB
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = ("import resource, sys\n"
            "from orbitdesigns.cli import main\n"
            "code = main(['orbit', 'B(30)', '--seed', ','.join(map(str, range(1, 31)))])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 4
    assert proc.stderr == ("resource error: orbit of B(30) passes max_order=200000 lines: "
                           "the group is larger than that, or copies of one line split "
                           "into distinct dedup keys at 8 digits\n")
    assert int(proc.stdout) < 400 * 1024  # ru_maxrss is in KiB


def test_union_in_a_group_above_max_order(capsys):
    code, payload = run_json(capsys, "union", "B(9)", "--x", "1,0,0,0,0,0,0,0,0",
                             "--y", "1,1,1,1,1,1,1,1,1", "--t", "2")
    assert code == 0
    assert payload["roots"][0]["beta"] == ["2/11", "9/11"]
    assert payload["verified_strength"] == 2


@pytest.mark.parametrize("seed", ["1e200,1", "1e-200,1e-200"])
def test_orbit_of_a_seed_far_from_unit_norm(capsys, seed):
    # the seed's norm leaves the float range unless it is scaled first
    assert main(["orbit", "binI", "--seed", seed, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["lines"] == 30 and captured.err == ""


def test_orbit_of_lines_closer_than_the_gram_test_resolves(capsys):
    # the closest lines are 1e-5 rad apart, so 1 - |<a,b>| = 5e-11 is within
    # REL_EQ; their 8-digit keys and their phase-aligned distance differ
    code, payload = run_json(capsys, "orbit", "binI", "--seed", "1e-05+1i,1")
    assert code == 0 and payload["lines"] == 60
    assert capsys.readouterr().err == ""


def test_orbit_of_a_huge_ambient_seed(capsys):
    # the zero-sum test reads the seed scaled to parts below 1, so it cannot overflow
    code, payload = run_json(capsys, "orbit", "A(3)", "--seed", "1e308,1e308,-1e308,-1e308")
    assert code == 0 and payload["lines"] == 3
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("spec,seed,err", [
    ("A(3)", "1,2", "seed length 2 does not match A(3) (dim 3)"),
    ("H3", "1+1i,1,0", "H3 is a real group; seed has imaginary parts"),
    # a seed is judged at unit scale: these are 1e-14 and 1e-12 times seeds
    # that fail the same tests
    ("H3", "1/100000000000000+1/100000000000000i,1/100000000000000,0",
     "H3 is a real group; seed has imaginary parts"),
    ("A(3)", "1e-12,1e-12,-1e-12,-1.5e-12",
     "seed for A(3) given in ambient coordinates must sum to zero"),
])
def test_orbit_rejects_seeds_outside_the_model(capsys, spec, seed, err):
    assert main(["orbit", spec, "--seed", seed]) == 3
    assert capsys.readouterr().err == f"error: {err}\n"


def test_orbit_of_a_zero_seed(capsys):
    assert main(["orbit", "binI", "--seed", "0,0"]) == 3
    assert capsys.readouterr().err == "error: zero seed vector\n"


def test_group_closure_key_collision_exit(capsys, dedup_digits):
    # at 1 digit neighbouring rotations of rot(100) round to one key
    dedup_digits(1)
    assert main(["group", "rot(100)"]) == 3
    assert capsys.readouterr().err == (
        "error: the generators of rot(100) do not permute the 2 elements found: "
        "dedup keys at 1 digits split or merge them\n")


def test_group_explicit_closure_key_split_exit(capsys, tmp_path, dedup_digits):
    # an explicit group has no closed-form order to stop its closure: at 13
    # digits A(5)'s generators close to 763 rows, which they do not permute
    path = tmp_path / "a5.json"
    gens = build_generators(parse_group_spec("A(5)"))
    path.write_text(json.dumps({"field": "R", "generators": [g.tolist() for g in gens]}))
    dedup_digits(13)
    assert main(["group", f"explicit:{path}"]) == 3
    assert capsys.readouterr().err == (
        f"error: the generators of explicit:{path} do not permute the 763 elements found: "
        "dedup keys at 13 digits split or merge them\n")


def test_orbit_key_split_exit(capsys, dedup_digits):
    # the walk stops once it passes |H4| = 14400 lines instead of running on
    dedup_digits(15)
    start = time.monotonic()
    assert main(["orbit", "H4", "--seed", "@2"]) == 3
    assert time.monotonic() - start < 10.0
    err = capsys.readouterr().err
    assert "split" in err
    assert "dedup keys at 15 digits" in err


def test_orbit_cross(capsys):
    code, payload = run_json(capsys, "orbit", "G(2,1,2)", "--seed", "1,0")
    assert code == 0
    assert payload["lines"] == 2
    assert payload["strength"] == 1


def test_orbit_pole_of_binary_icosahedral(capsys):
    # (1,0) sits on an edge axis of this presentation: 30 lines, strength 5
    code, payload = run_json(capsys, "orbit", "binI", "--seed", "1,0")
    assert code == 0
    assert payload["lines"] == 30
    assert payload["strength"] == 5


def test_orbit_catalog_reference_and_dump(capsys):
    code, payload = run_json(capsys, "orbit", "H4", "--seed", "@1", "--dump")
    assert code == 0
    assert payload["lines"] == 60
    assert payload["strength"] == 5
    assert len(payload["line_vectors"]) == 60


def test_orbit_bad_catalog_reference(capsys):
    assert main(["orbit", "H4", "--seed", "@9"]) == 3
    assert main(["orbit", "H4", "--seed", "@x"]) == 3


def test_union_symmetric_row(capsys):
    code, payload = run_json(
        capsys, "union", "A(3)", "--x", "1,1,-1,-1", "--y", "3,-1,-1,-1", "--t", "2")
    assert code == 0
    root = payload["roots"][payload["preferred"]]
    assert root["beta"] == ["2/5", "3/5"]
    assert root["w_hat"] == ["14/15", "21/20"]
    assert payload["certificate"]["beta"] == ["2/5", "3/5"]


def test_union_no_real_root_exit(capsys):
    code, payload = run_json(
        capsys, "union", "G(2,2,4)", "--x", "1,0,0,0", "--y", "1,1,1,1", "--t", "2")
    assert code == 2
    assert payload["roots"] == []
    assert not payload["degenerate"]


def test_union_degenerate_pair_exit(capsys):
    code, payload = run_json(
        capsys, "union", "dihedral(3)", "--x", "1,0", "--y", "2,1", "--t", "2")
    assert code == 0
    assert payload["degenerate"]


def test_union_icosahedral_row_and_emit(capsys, tmp_path):
    path = tmp_path / "h3.json"
    code, payload = run_json(
        capsys, "union", "H3", "--x", "@1", "--y", "@2", "--t", "3",
        "--emit", str(path))
    assert code == 0
    root = payload["roots"][payload["preferred"]]
    assert root["w_hat"] == ["20/21", "36/35"]
    assert payload["verified_strength"] == 4
    stored = json.loads(path.read_text())
    assert stored["beta"] == ["5/14", "9/14"]

    code, verdict = run_json(capsys, "verify", str(path))
    assert code == 0
    assert verdict["passed"]


def test_union_irrational_root_writes_no_certificate(capsys, tmp_path):
    path = tmp_path / "d5.json"
    argv = ["union", "dihedral(5)", "--x", "1,0", "--y", "0.8,0.6", "--t", "5",
            "--emit", str(path)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "(no snap)" in captured.out
    assert "certificate written" not in captured.out
    assert captured.err == "no certificate written: root 0 did not snap to a rational\n"
    assert not path.exists()

    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload["roots"][0]["beta"] is None
    assert "certificate" not in payload and "verified_strength" not in payload


def test_union_near_design_pair_finds_its_root(capsys, tmp_path):
    # the 60-line binI orbit is within 2e-7 of a 6-design; its pair with
    # the 12-line orbit used to exit 2 ("no real root")
    path = tmp_path / "bini.json"
    assert main(["union", "binI", "--x", "@1", "--y", "@4", "--t", "6",
                 "--emit", str(path)]) == 0
    captured = capsys.readouterr()
    assert "root 0: alpha = -0.00669256065417 (no snap)" in captured.out
    assert captured.err == "no certificate written: root 0 did not snap to a rational\n"
    assert not path.exists()


def test_verify_tampered_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _ = run_json(
        capsys, "union", "B(2)", "--x", "@1", "--y", "@2", "--t", "2",
        "--emit", str(path))
    assert code == 0
    cert = json.loads(path.read_text())
    cert["lines"][0][0] += 1e-3
    path.write_text(json.dumps(cert))
    code, payload = run_json(capsys, "verify", str(path))
    assert code == 1
    assert not payload["passed"]
    assert payload["reasons"]


def test_verify_design_certificate_at_higher_order(capsys, tmp_path):
    # the 6+12 line union solved at t = 5 still carries beta = (1/5, 4/5)
    path = tmp_path / "c18.json"
    code, payload = run_json(
        capsys, "union", "binO", "--x", "@1", "--y", "@3", "--t", "5",
        "--emit", str(path))
    assert code == 0
    assert payload["certificate"]["beta"] == ["1/5", "4/5"]
    code, verdict = run_json(capsys, "verify", str(path))
    assert code == 0
    assert verdict["passed"]
    assert "5" in verdict["residuals"]


def test_union_emit_to_unwritable_path(capsys, tmp_path):
    for path in (tmp_path / "missing" / "c.json", tmp_path):
        assert main(["union", "B(2)", "--x", "@1", "--y", "@2", "--t", "2",
                     "--emit", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write certificate: ")


def test_verify_rejects_orders_above_tmax(capsys, tmp_path):
    # welch_constant and the summation grow with the order count, so a
    # claimed order above --tmax is refused before any arithmetic
    path = tmp_path / "cert.json"
    assert main(["union", "B(2)", "--x", "@1", "--y", "@2", "--t", "2",
                 "--emit", str(path)]) == 0
    cert = json.loads(path.read_text())
    for t, residuals in ((4000, cert["residuals"]), (2, {**cert["residuals"], "4000": 0.0})):
        path.write_text(json.dumps({**cert, "t": t, "residuals": residuals}))
        capsys.readouterr()
        start = time.monotonic()
        assert main(["verify", str(path)]) == 4
        assert time.monotonic() - start < 1.0
        assert "certificate claims order 4000, above t_max=12" in capsys.readouterr().err
    # the stored benchmark certificates hold orders 1..9
    stored = sorted((Path(__file__).parents[1] / "perfbench" / "certificates").glob("*.json"))
    assert len(stored) == 4
    for cert_path in stored:
        assert main(["verify", str(cert_path), "--tmax", "9"]) == 0
    assert main(["verify", str(stored[0]), "--tmax", "8"]) == 4


@pytest.mark.parametrize("key", ["0", "-1", "x"])
def test_verify_bad_residual_order_exit(capsys, tmp_path, key):
    path = tmp_path / "cert.json"
    assert main(["union", "B(2)", "--x", "@1", "--y", "@2", "--t", "2",
                 "--emit", str(path)]) == 0
    cert = json.loads(path.read_text())
    cert["residuals"][key] = 0.0
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 3
    assert "residual" in capsys.readouterr().err


@pytest.mark.parametrize("stored", [{"1": 0.0}, {}])
def test_verify_recomputes_every_claimed_order(capsys, tmp_path, stored):
    # uniform weights on the binO 6+12 union are a 3-design but not the
    # claimed 5-design; the certificate stores no residual to disagree with
    path = tmp_path / "c18.json"
    assert main(["union", "binO", "--x", "@1", "--y", "@3", "--t", "5",
                 "--emit", str(path)]) == 0
    cert = json.loads(path.read_text())
    cert["weights"] = ["1/18"] * 18
    cert["residuals"] = stored
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    code, payload = run_json(capsys, "verify", str(path))
    assert code == 1
    missing = [f"t={t}: no stored residual" for t in range(1, 6) if str(t) not in stored]
    assert [r for r in payload["reasons"] if "no stored" in r] == missing
    assert any(r.startswith("t=4: recomputed residual") for r in payload["reasons"])
    assert not any(r.startswith("t=3: recomputed") for r in payload["reasons"])


def test_verify_line_norm_past_the_float_range(capsys, tmp_path):
    # the squared norm of 1e200 overflows; the line-norm reason must say so
    stored = Path(__file__).parents[1] / "perfbench" / "certificates" / "h4_t6_x1_y2.json"
    cert = json.loads(stored.read_text())
    cert["lines"][0] = [1e200, 0, 0, 0]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(cert))
    assert main(["verify", str(path), "--format", "json"]) == 1
    captured = capsys.readouterr()
    reasons = json.loads(captured.out)["reasons"]
    assert len(reasons) == 1 and reasons[0].startswith("line norms deviate from 1 by")
    assert captured.err == ""


@pytest.mark.parametrize("key", ["schema", "dim", "t"])
def test_verify_rejects_boolean_integers(capsys, tmp_path, key):
    path = tmp_path / "cert.json"
    assert main(["union", "B(2)", "--x", "@1", "--y", "@2", "--t", "2",
                 "--emit", str(path)]) == 0
    cert = json.loads(path.read_text())
    cert[key] = True
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 3
    assert f"key {key!r} has wrong type" in capsys.readouterr().err


def test_verify_rejects_untyped_weights_and_lines(capsys, tmp_path):
    # JSON number weights used to crash the weight parser, and a line entry
    # true was read as 1.0 and passed; Fraction("1e400") is exact, but its
    # float overflows
    path = tmp_path / "cert.json"
    assert main(["union", "B(2)", "--x", "@1", "--y", "@2", "--t", "2",
                 "--emit", str(path)]) == 0
    cert = json.loads(path.read_text())
    assert cert["weights"] == ["1/4"] * 4 and cert["lines"][0][0] == 1.0
    lines = [[True if e == 1.0 else e for e in row] for row in cert["lines"]]
    for damaged in ({**cert, "weights": [0.25] * 4}, {**cert, "lines": lines},
                    {**cert, "weights": ["1e400"] + ["1/4"] * 3},
                    {**cert, "weights": ["1/0"] + ["1/4"] * 3}):
        path.write_text(json.dumps(damaged))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: malformed lines or weights: ")
        assert err.count("\n") == 1


def test_verify_reads_decimal_and_spaced_weights(capsys, tmp_path):
    # a weight is read by Fraction(s), which strips spaces and reads decimals
    path = tmp_path / "cert.json"
    assert main(["union", "B(2)", "--x", "@1", "--y", "@2", "--t", "2",
                 "--emit", str(path)]) == 0
    cert = json.loads(path.read_text())
    assert cert["weights"] == ["1/4"] * 4
    for spelling in ("0.25", " 1/4 "):
        path.write_text(json.dumps({**cert, "weights": [spelling] * 4}))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out.endswith("\nPASS\n")


@pytest.mark.parametrize("x,y", [(1, 2), (1, 3), (1, 4), (2, 3)])
def test_reemitted_h4_certificates_match_the_stored_files(capsys, tmp_path, x, y):
    # each stored benchmark certificate is `union H4 --x @x --y @y --t 6 --emit`;
    # its weights, beta and w_hat pin the str(Fraction) spelling
    name = f"h4_t6_x{x}_y{y}.json"
    stored = json.loads((Path(__file__).parents[1] / "perfbench" / "certificates" / name)
                        .read_text())
    path = tmp_path / name
    assert main(["union", "H4", "--x", f"@{x}", "--y", f"@{y}", "--t", "6",
                 "--emit", str(path)]) == 0
    fresh = json.loads(path.read_text())
    for key in ("weights", "beta", "w_hat", "seeds", "group", "t", "signed"):
        assert fresh[key] == stored[key], key
    # the stored lines are the same, each with the same weight, in an older order
    lines, held = np.array(fresh["lines"]), np.array(stored["lines"])
    match = np.abs(lines @ held.T).argmax(axis=1)
    assert sorted(match.tolist()) == list(range(len(held)))
    assert np.allclose(lines, held[match])
    assert fresh["weights"] == [stored["weights"][i] for i in match]


@pytest.mark.parametrize("spell", [str, lambda r: False], ids=["strings", "false"])
def test_verify_rejects_residuals_that_are_not_numbers(capsys, tmp_path, spell):
    # float() read "8.88e-16" and false (as 0.0) as residuals, and both passed
    stored = Path(__file__).parents[1] / "perfbench" / "certificates" / "h4_t6_x1_y2.json"
    cert = json.loads(stored.read_text())
    cert["residuals"] = {t: spell(r) for t, r in cert["residuals"].items()}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["verify", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed residuals: ") and err.count("\n") == 1


def test_verify_structural_error_exit(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 3
    assert main(["verify", str(tmp_path / "missing.json")]) == 3
    # valid JSON that is not an object used to crash with a TypeError, exit 1
    for text in ("5", "null", "true", "[]"):
        path.write_text(text)
        capsys.readouterr()
        assert main(["verify", str(path)]) == 3
        assert capsys.readouterr().err == "error: certificate must be a JSON object\n"


# each JSON file the CLI reads: (subcommand, spec prefix, the file's name in messages)
_JSON_READERS = [("verify", "", "certificate"), ("group", "explicit:", "generator file")]


@pytest.mark.parametrize("command,prefix,what", _JSON_READERS, ids=["verify", "group"])
@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "nested-past-the-recursion-limit"])
def test_a_file_that_is_not_json_exits_3(capsys, tmp_path, command, prefix, what, content):
    # a UnicodeDecodeError or a RecursionError ended in a traceback, exit 1
    path = tmp_path / "file.json"
    path.write_bytes(content)
    assert main([command, f"{prefix}{path}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} is not valid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("command,prefix,what", _JSON_READERS, ids=["verify", "group"])
def test_a_file_that_cannot_be_read_exits_3(capsys, tmp_path, command, prefix, what):
    for path in (tmp_path / "missing.json", tmp_path):
        assert main([command, f"{prefix}{path}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {what}: [Errno ") and err.count("\n") == 1


def test_union_emit_on_degenerate_pair_says_why(capsys, tmp_path):
    path = tmp_path / "p.json"
    assert main(["union", "B(2)", "--x", "1,0", "--y", "1,1", "--t", "1",
                 "--emit", str(path)]) == 0
    captured = capsys.readouterr()
    assert not path.exists()
    assert "degenerate: every affine weighting of X and Y is a design" in captured.out
    assert captured.err == "no certificate written: the pair is degenerate and has no root\n"


def test_group_rejects_boolean_generator_entries(capsys, tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"field": "R", "generators": [[[False, True], [True, False]]]}))
    assert main(["group", f"explicit:{path}"]) == 3
    assert "malformed generator entry" in capsys.readouterr().err


def test_scan_table_output(capsys):
    code, out = run(capsys, "scan", "binT", "--tmax", "4")
    assert code == 0
    assert "t_generic: 2" in out
    assert "t_pairs: 3-3" in out
    assert "seed: 0" in out


def test_scan_json_payload(capsys):
    code, payload = run_json(capsys, "scan", "dihedral(4)", "--tmax", "4", "--seed", "1")
    assert code == 0
    assert payload["seed"] == 1
    assert payload["samples"] == 20
    assert payload["t_generic"] == 1
    assert payload["t_pairs"] == [2, 3]
    assert len(payload["verdicts"]) == 4
    assert payload["harmonic_invariants"] == [0, 1, 0, 1]


def test_scan_contradicting_sample_exit(capsys, monkeypatch):
    monkeypatch.setattr("orbitdesigns.pairscan._harmonic_invariants", lambda g, t: [0] * t)
    assert main(["scan", "heis(3)", "--tmax", "3"]) == 3
    assert "invariant harmonics" in capsys.readouterr().err


def test_scan_rejects_negative_seed(capsys):
    assert main(["scan", "binT", "--tmax", "3", "--seed", "-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0\n"


def test_scan_heisenberg(capsys):
    code, out = run(capsys, "scan", "heis(3)", "--tmax", "3")
    assert code == 0
    assert "t_pairs: {}" in out


def test_reproduce_one_table(capsys):
    code, out = run(capsys, "reproduce", "A")
    assert code == 0
    assert out.count("[PASS]") == 4
    assert "4/4 rows reproduced" in out


def test_reproduce_judges_unions_by_verified_strength(capsys, monkeypatch):
    # a union row passes when its verified strength reaches t, as a single
    # orbit row does
    solve = cli.solve_union

    def short_of_t(X, Y, t, *args):
        sol = solve(X, Y, t, *args)
        return dataclasses.replace(
            sol, verified=dataclasses.replace(sol.verified, strength=t - 1))

    monkeypatch.setattr(cli, "solve_union", short_of_t)
    code, out = run(capsys, "reproduce", "A")
    assert code == 1
    assert out.count("verified strength 1 is below t") == 4


def test_reproduce_fails_rows_it_does_not_match(capsys, monkeypatch):
    # a wrong beta, a wrong w_hat, and a beta expected of a pair with no real root
    row = {"table": "T", "group": "G(1,1,4)", "seedX": "1,1,-1,-1", "seedY": "3,-1,-1,-1",
           "t": "2", "betaX": "2/5", "betaY": "3/5", "whatX": "14/15", "whatY": "21/20"}
    rows = [{**row, "betaX": "1/5", "betaY": "4/5"}, {**row, "whatX": "1", "whatY": "1"},
            {**row, "group": "G(2,2,4)", "seedX": "1,0,0,0", "seedY": "1,1,1,1"}]
    monkeypatch.setattr(cli, "_load_expectations", lambda: rows)
    code, out = run(capsys, "reproduce", "all")
    assert code == 1
    assert out.splitlines() == [
        "[FAIL] T: G(1,1,4) (3+4 lines, t=2): beta (2/5, 3/5) != expected (1/5, 4/5)",
        "[FAIL] T: G(1,1,4) (3+4 lines, t=2): w_hat (14/15, 21/20) != expected (1, 1)",
        "[FAIL] T: G(2,2,4) (4+4 lines, t=2): beta (none) != expected (2/5, 3/5)",
        "0/3 rows reproduced",
    ]


def test_reproduce_json(capsys):
    code, payload = run_json(capsys, "reproduce", "D")
    assert code == 0
    assert payload["failed"] == 0
    assert len(payload["rows"]) == 7


def test_union_tmax_below_t(capsys):
    # the verified report covers orders up to max(t, tmax), so the
    # certificate still stores residuals for 1..t
    code, payload = run_json(capsys, "union", "H4", "--x", "@1", "--y", "@2",
                             "--t", "6", "--tmax", "3")
    assert code == 0
    assert list(payload["certificate"]["residuals"]) == [str(t) for t in range(1, 7)]


def test_reproduce_walks_each_orbit_once(capsys, monkeypatch):
    # 60 seeds over 31 rows, 40 distinct (group, seed) pairs among them
    calls = []
    walk = cli.orbit_lines
    monkeypatch.setattr(cli, "orbit_lines", lambda *args, **kw: calls.append(args) or
                        walk(*args, **kw))
    code, out = run(capsys, "reproduce", "all")
    assert code == 0 and "31/31 rows reproduced" in out
    assert len(calls) == 40


def test_only_a_certificate_assembles_the_union(capsys, monkeypatch):
    # every row is decided through its own t: a union row on w^T P w, and a
    # single-orbit row on its potentials at orders 1..t; the weighted line
    # set is built once, by emit_certificate, for `union`
    assembled, orders, single = [], [], []
    union_lines, solve, strength = unions.union_lines, cli.solve_union, cli.strength
    monkeypatch.setattr(unions, "union_lines",
                        lambda *args: assembled.append(args) or union_lines(*args))
    monkeypatch.setattr(cli, "solve_union", lambda X, Y, t, t_max=12:
                        orders.append((t, t_max)) or solve(X, Y, t, t_max))
    monkeypatch.setattr(cli, "strength", lambda X, t_max=12:
                        single.append(t_max) or strength(X, t_max))
    code, out = run(capsys, "reproduce", "all")
    assert code == 0 and "31/31 rows reproduced" in out
    assert assembled == []
    assert len(orders) == 29 and all(t == t_max for t, t_max in orders)
    assert single == [2, 2]  # the B and D rows of the seed 1,1,0,0, both at t = 2
    assert main(["union", "H4", "--x", "@1", "--y", "@4", "--t", "6"]) == 0
    assert len(assembled) == 1
    assert "union" not in {f.name for f in dataclasses.fields(unions.UnionSolution)}


@pytest.mark.parametrize("argv,n_lines", [
    (("union", "H4", "--x", "@1", "--y", "@4", "--t", "6"), 660),
    # the boundary root beta = (0, 1) drops X's four zero-weight lines
    (("union", "binT", "--x", "@1", "--y", "@3", "--t", "3"), 6),
])
def test_union_lines_counts_the_certificate_lines(capsys, argv, n_lines):
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload["union_lines"] == len(payload["certificate"]["lines"]) == n_lines


def test_reproduce_rejects_unknown_table(capsys):
    # table names are read from expectations.csv, not from a fixed list
    assert main(["reproduce", "Z"]) == 3
    assert capsys.readouterr().err == "error: no expectation rows for table 'Z'\n"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["group"],
        ["union", "B(2)", "--x", "1,0", "--t", "2"],  # missing --y
        ["union", "B(2)", "--x", "1,0", "--y", "1,1", "--t", "0"],
        ["scan", "binT", "--samples", "-3"],
        ["scan", "binT", "--samples", "20"],  # the sample count is fixed
        ["group", "B(2)", "--rel-eq", "-1"],  # no subcommand offers --rel-eq
        ["orbit", "B(2)", "--seed", "0,0"],
        ["orbit", "B(2)", "--seed", "1e400,1"],
        ["group", "rot(5 5)"],
        ["union", "B(2)", "--x", "1,0", "--y", "1,1", "--t", "2", "--workers", "2"],
        # flags a subcommand does not read are not offered
        ["verify", "cert.json", "--dedup-digits", "3"],
        ["verify", "cert.json", "--max-order", "1"],
        ["group", "B(2)", "--tmax", "3"],
        ["union", "B(2)", "--x", "1,0", "--y", "1,1", "--t", "2", "--snap-denom-max", "5"],
        ["reproduce", "all", "--snap-denom-max", "5"],
        ["reproduce", "all", "--tmax", "4"],  # every row is checked through its own t
        ["reproduce", "all", "--max-order", "1000"],  # the table fixes every walk
        ["orbit", "B(2)", "--seed", "1,0", "--dedup-digits", "8"],  # the grid is a constant
        # the size limit is a constant too
        ["group", "B(2)", "--max-order", "1000"],
        ["orbit", "B(2)", "--seed", "1,0", "--max-order", "1000"],
        ["union", "B(2)", "--x", "1,0", "--y", "1,1", "--t", "2", "--max-order", "1000"],
        ["scan", "B(2)", "--max-order", "1000"],
    ],
)
def test_usage_errors(argv, capsys):
    assert main(argv) == 3


_COMMON_FLAGS = ["--tmax", "--format"]
_SUBCOMMAND_FLAGS = {
    "group": ["--format"],
    "orbit": ["--seed", "--dump", *_COMMON_FLAGS],
    "union": ["--x", "--y", "--t", "--emit", *_COMMON_FLAGS],
    "scan": ["--seed", *_COMMON_FLAGS],
    "verify": ["--tmax", "--format"],
    "reproduce": ["--format"],
}


@pytest.mark.parametrize("command", list(_SUBCOMMAND_FLAGS))
def test_subcommand_flags(command, capsys):
    # each subcommand offers only the flags it reads
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    flags = re.findall(r"^\s+(?:-\w, )?(--[a-z][a-z-]*)", out, re.M)
    assert [f for f in flags if f != "--help"] == _SUBCOMMAND_FLAGS[command]


def test_readme_flag_table_matches_the_parser():
    # the README's table of shared flags: which subcommand offers each, and the
    # default of --tmax where it is offered
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(r"^\| subcommand \|(.*)\|\n\|[-|]+\|\n((?:\|.*\|\n)+)", readme, re.M)
    columns = [c.strip(" `") for c in table.group(1).split("|")]
    assert columns == _COMMON_FLAGS
    shown = {}
    for line in table.group(2).splitlines():
        command, *cells = [c.strip(" `") for c in line.strip("|").split("|")]
        shown[command] = cells
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    offered = {}
    for command, p in sub.choices.items():
        defaults = {flag: a.default for a in p._actions for flag in a.option_strings}
        offered[command] = ["" if flag not in defaults else
                            str(defaults[flag]) if flag == "--tmax" else "yes"
                            for flag in _COMMON_FLAGS]
    assert shown == offered


def test_resource_limit_exit(capsys, max_order):
    max_order(100)
    assert main(["group", "H4"]) == 4


# a number in e-notation is rounding noise, which differs across BLAS builds
_E_NUMBER = re.compile(r"[+-]?\d+(?:\.\d*)?[eE][+-]?\d+")


def _shown_lines_match(shown: list[str], got: list[str]) -> bool:
    """got matches shown, where a shown "..." line stands for any run of lines."""
    if not shown:
        return not got
    if shown[0] == "...":
        return any(_shown_lines_match(shown[1:], got[i:]) for i in range(len(got) + 1))
    return bool(got) and shown[0] == got[0] and _shown_lines_match(shown[1:], got[1:])


def test_readme_examples(capsys, tmp_path, monkeypatch):
    # every README block that starts with "$ orbitdesigns" runs, in README order
    # and in one directory (verify reads the certificate that union writes)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [b.splitlines() for b in re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
              if b.startswith("$ orbitdesigns")]
    assert len(blocks) == 6
    monkeypatch.chdir(tmp_path)
    for command, *shown in blocks:
        assert main(shlex.split(command[len("$ orbitdesigns"):])) == 0, command
        got = _E_NUMBER.sub("<e>", capsys.readouterr().out).splitlines()
        assert _shown_lines_match([_E_NUMBER.sub("<e>", line) for line in shown], got), \
            (command, got)


def test_readme_library_example(capsys):
    # the Library block runs, and each print shows the value its comment gives
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.M | re.S).group(1)
    shown = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert shown == ["(Fraction(5, 14), Fraction(9, 14))", "4"]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown


def test_installed_entry_point(tmp_path):
    # Installs this checkout's [project.scripts] into tmp_path and runs the
    # generated script. The install works from a copy because setuptools writes
    # build/ and *.egg-info next to the sources, and it calls setup() directly
    # because an offline pip needs `wheel` (or setuptools >= 70.1) for bdist_wheel.
    pytest.importorskip("setuptools")
    checkout = Path(__file__).resolve().parents[1]
    work, lib, bin_dir = tmp_path / "src_copy", tmp_path / "lib", tmp_path / "bin"
    work.mkdir()
    shutil.copy(checkout / "pyproject.toml", work)
    shutil.copytree(
        checkout / "src", work / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    install = subprocess.run(
        [
            sys.executable, "-c", "from setuptools import setup; setup()",
            "-q", "install", "--single-version-externally-managed",
            "--record", str(tmp_path / "record.txt"),
            "--install-lib", str(lib), "--install-scripts", str(bin_dir),
        ],
        cwd=work, capture_output=True, text=True,
    )
    assert install.returncode == 0, install.stderr
    env = {**os.environ, "PYTHONPATH": str(lib)}
    where = subprocess.run(
        [sys.executable, "-c", "import orbitdesigns; print(orbitdesigns.__file__)"],
        env=env, capture_output=True, text=True,
    )
    assert Path(where.stdout.strip()).resolve().is_relative_to(lib.resolve()), where.stderr
    exe = bin_dir / "orbitdesigns"
    proc = subprocess.run([exe, "group", "binT"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "order: 24" in proc.stdout
    for unbuffered in ("1", ""):
        assert _closed_pipe_run([exe], env, unbuffered) == (141, b"")


def _closed_pipe_run(command: list, env: dict, unbuffered: str) -> tuple[int, bytes]:
    """Exit code and stderr of `reproduce all` when its reader closes stdout
    early. Unbuffered, the reader takes one line first; block-buffered, every
    line waits for the flush at exit, so the reader closes before any."""
    proc = subprocess.Popen([*command, "reproduce", "all"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE,
                            env={**env, "PYTHONUNBUFFERED": unbuffered})
    if unbuffered:
        assert proc.stdout.readline().startswith(b"[PASS] A: ")
    proc.stdout.close()
    err = proc.stderr.read()
    return proc.wait(timeout=60), err


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_pipe_exits_141_quietly(unbuffered):
    # 128 + SIGPIPE, as a shell reports a command killed by a closed pipe;
    # exit 1 would read as a failed reproduction
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    assert _closed_pipe_run([sys.executable, "-m", "orbitdesigns.cli"], env,
                            unbuffered) == (141, b"")
