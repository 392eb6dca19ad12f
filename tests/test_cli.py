"""Command-line surface: payloads, exit codes, reproduction driver."""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

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


def test_scan_heisenberg(capsys):
    code, out = run(capsys, "scan", "heis(3)", "--tmax", "3", "--samples", "6")
    assert code == 0
    assert "t_pairs: {}" in out


def test_reproduce_one_table(capsys):
    code, out = run(capsys, "reproduce", "A")
    assert code == 0
    assert out.count("[PASS]") == 4
    assert "4/4 rows reproduced" in out


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
