"""Command-line surface: payloads, exit codes, reproduction driver."""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from orbitdesigns import cli
from orbitdesigns.cli import main


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


def test_group_complex_summary(capsys):
    code, payload = run_json(capsys, "group", "binI")
    assert code == 0
    assert payload["order"] == 120
    assert payload["field"] == "C"


def test_group_rejects_degenerate_family(capsys):
    assert main(["group", "G(3,3,1)"]) == 3


def test_group_closure_key_split_exit(capsys):
    # at 13 digits copies of one A(5) element round to distinct keys; the
    # closure used to report order 763 for this group of order 720
    assert main(["group", "A(5)", "--dedup-digits", "13"]) == 3
    err = capsys.readouterr().err
    assert "passes its order 720" in err
    assert "split into distinct dedup keys at 13 digits" in err


def test_group_closure_key_split_at_max_order_exit(capsys):
    # max_order equal to |H4| must not turn the key split into a size limit
    assert main(["group", "H4", "--dedup-digits", "15", "--max-order", "14400"]) == 3
    err = capsys.readouterr().err
    assert "passes its order 14400" in err
    assert "split into distinct dedup keys at 15 digits" in err
    assert main(["group", "H4", "--max-order", "100"]) == 4


def test_group_closure_key_collision_exit(capsys):
    # at 1 digit neighbouring rotations of rot(100) round to one key
    assert main(["group", "rot(100)", "--dedup-digits", "1"]) == 3
    assert capsys.readouterr().err == "error: distinct elements of rot(100) collide at 1 digits\n"


def test_orbit_key_split_exit(capsys):
    # the walk stops once it passes |H4| = 14400 lines instead of running on
    start = time.monotonic()
    assert main(["orbit", "H4", "--seed", "@2", "--dedup-digits", "15"]) == 3
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
    # JSON number weights used to crash in parse_rational, and a line entry
    # true was read as 1.0 and passed
    path = tmp_path / "cert.json"
    assert main(["union", "B(2)", "--x", "@1", "--y", "@2", "--t", "2",
                 "--emit", str(path)]) == 0
    cert = json.loads(path.read_text())
    assert cert["weights"] == ["1/4"] * 4 and cert["lines"][0][0] == 1.0
    lines = [[True if e == 1.0 else e for e in row] for row in cert["lines"]]
    for damaged in ({**cert, "weights": [0.25] * 4}, {**cert, "lines": lines}):
        path.write_text(json.dumps(damaged))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: malformed lines or weights: ")
        assert err.count("\n") == 1


def test_verify_structural_error_exit(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 3
    assert main(["verify", str(tmp_path / "missing.json")]) == 3


def test_scan_table_output(capsys):
    code, out = run(capsys, "scan", "binT", "--tmax", "4")
    assert code == 0
    assert "t_generic: 2" in out
    assert "t_pairs: 3-3" in out
    assert "seed: 0" in out


def test_scan_json_payload(capsys):
    code, payload = run_json(capsys, "scan", "dihedral(4)", "--tmax", "4",
                             "--samples", "8", "--seed", "1")
    assert code == 0
    assert payload["seed"] == 1
    assert payload["t_generic"] == 1
    assert payload["t_pairs"] == [2, 3]
    assert len(payload["verdicts"]) == 4
    assert payload["harmonic_invariants"] == [0, 1, 0, 1]


def test_scan_contradicting_sample_exit(capsys, monkeypatch):
    monkeypatch.setattr("orbitdesigns.pairscan._harmonic_invariants", lambda g, t: [0] * t)
    assert main(["scan", "heis(3)", "--tmax", "3", "--samples", "2"]) == 3
    assert "invariant harmonics" in capsys.readouterr().err


def test_scan_rejects_negative_seed(capsys):
    assert main(["scan", "binT", "--tmax", "3", "--seed", "-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0\n"


def test_scan_heisenberg(capsys):
    code, out = run(capsys, "scan", "heis(3)", "--tmax", "3", "--samples", "6")
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


def test_reproduce_all_tmax_below_row_orders(capsys):
    code, out = run(capsys, "reproduce", "all", "--tmax", "4")
    assert code == 0
    assert "31/31 rows reproduced" in out


def test_reproduce_rejects_unknown_table(capsys):
    assert main(["reproduce", "Z"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["group"],
        ["union", "B(2)", "--x", "1,0", "--t", "2"],  # missing --y
        ["union", "B(2)", "--x", "1,0", "--y", "1,1", "--t", "0"],
        ["scan", "binT", "--samples", "-3"],
        ["group", "B(2)", "--rel-eq", "-1"],
        ["orbit", "B(2)", "--seed", "0,0"],
        ["orbit", "B(2)", "--seed", "1e400,1"],
        ["group", "rot(5 5)"],
        ["union", "B(2)", "--x", "1,0", "--y", "1,1", "--t", "2", "--workers", "2"],
    ],
)
def test_usage_errors(argv, capsys):
    assert main(argv) == 3


def test_resource_limit_exit(capsys):
    assert main(["group", "H4", "--max-order", "100"]) == 4


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
