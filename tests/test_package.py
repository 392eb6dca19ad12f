"""Package surface: the public names exported by orbitdesigns."""
from __future__ import annotations

import ast
import builtins
import fnmatch
import importlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orbitdesigns


def test_every_export_resolves_once():
    names = orbitdesigns.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(orbitdesigns, name)] == []
    namespace: dict = {}
    exec("from orbitdesigns import *", namespace)
    assert set(names) <= namespace.keys()


def test_every_traced_function_resolves():
    # the benchmark's tracer reports a missing target as absent rather than
    # failing, so a renamed or deleted function would blank its metrics
    path = Path(__file__).parents[1] / "perfbench" / "shim.py"
    spec = importlib.util.spec_from_file_location("perfbench_shim", path)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    targets = [(module, attr) for where, _ in shim.TARGETS.values() for module, attr in where]
    assert targets
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(f"orbitdesigns.{module}"),
                                       attr, None))]
    # groups.unitarize is gone (generators are checked unitary at build); no
    # benchmark job ever reached it, since every workload builds family groups
    # or none, so its stale span blanks nothing. designs.potential,
    # designs.cross_potential and unions.pair_quadratic are gone too (every
    # potential comes from designs.cross_matrix); no workload called them, so
    # the designs.potential and unions.quadratic spans were already absent.
    # groups.close_group is gone too (FiniteMatrixGroup.elements runs the
    # closure walk); the table, certify and verify workloads close no group,
    # so its groups.closure span was never reached there
    assert sorted(missing) == ["designs.cross_potential", "designs.potential",
                               "groups.close_group", "groups.unitarize",
                               "unions.pair_quadratic"]


def test_every_benchmark_job_parses(tmp_path, monkeypatch):
    # the benchmark counts a job whose flags the CLI refuses as a failed job,
    # so a dropped flag it still passes would show only in a benchmark run
    path = Path(__file__).parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    jobs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, jobs)  # its Job dataclass looks itself up there
    spec.loader.exec_module(jobs)
    from orbitdesigns.cli import _build_parser
    parser = _build_parser()
    for name, make_round in jobs.WORKLOADS.items():
        round_jobs = make_round(random.Random(0), tmp_path)
        assert round_jobs, name
        for job in round_jobs:
            parser.parse_args([*job.argv, "--format", "json"])  # a usage error raises


def test_potentials_have_one_entry_point():
    for name in ("potential", "cross_potential", "pair_quadratic"):
        with pytest.raises(AttributeError):
            getattr(orbitdesigns, name)
    from orbitdesigns import designs
    assert orbitdesigns.cross_matrix is designs.cross_matrix
    assert isinstance(orbitdesigns.catalog(), tuple)
    assert orbitdesigns.catalog() is orbitdesigns.catalog()


def test_no_module_keeps_an_unused_import():
    # __init__.py imports to re-export, so it is the one module left out
    unused = []
    for path in sorted(Path(orbitdesigns.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_every_name_a_module_reads_is_bound():
    # an annotation is read only by a type checker or typing.get_type_hints,
    # so a name it uses that nothing binds would otherwise go unnoticed; a
    # name bound anywhere in the module counts as bound everywhere in it
    unbound = []
    for path in sorted(Path(orbitdesigns.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = set(dir(builtins))
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.add(node.name)
            elif isinstance(node, ast.Name):
                (read if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        unbound += [f"{path.name}: {name}" for name in sorted(read - bound)]
    assert unbound == []


def test_every_data_file_ships_in_the_package():
    # the tests import the package from src/, so a data file that
    # [tool.setuptools.package-data] leaves out would be missing only from an
    # installed copy; pyproject.toml is read as text (Python 3.10 has no tomllib)
    root = Path(__file__).parents[1]
    text = (root / "pyproject.toml").read_text()
    section = re.search(r"^\[tool\.setuptools\.package-data\]\n(.*?)(?=^\[|\Z)",
                        text, re.M | re.S).group(1)
    listed = re.search(r"^orbitdesigns\s*=\s*\[(.*?)\]", section, re.M | re.S).group(1)
    patterns = re.findall(r'"([^"]*)"', listed)
    package = root / "src" / "orbitdesigns"
    data = [path.relative_to(package).as_posix() for path in sorted(package.rglob("*"))
            if path.is_file() and path.suffix not in (".py", ".pyc")
            and "__pycache__" not in path.parts]
    assert "expectations.csv" in data
    assert [f for f in data if not any(fnmatch.fnmatch(f, p) for p in patterns)] == []


def test_init_imports_exactly_the_exports():
    # __init__.py re-exports through its _EXPORTS table, so a stale entry or
    # a name dropped from __all__ would otherwise go unnoticed
    assert orbitdesigns._EXPORTS.keys() == set(orbitdesigns.__all__)
    for name, module in orbitdesigns._EXPORTS.items():
        assert getattr(orbitdesigns, name) is getattr(
            importlib.import_module(f"orbitdesigns.{module}"), name)
    assert set(orbitdesigns.__all__) <= set(dir(orbitdesigns))
    with pytest.raises(AttributeError, match="'orbitdesigns' has no attribute 'nope'"):
        orbitdesigns.nope
    from orbitdesigns import groups
    assert groups is importlib.import_module("orbitdesigns.groups")


def _modules_after(*commands: list[str]) -> list[set[str]]:
    """sys.modules of a fresh process after `import orbitdesigns`, then after
    each CLI command in turn (each must exit 0)."""
    src = str(Path(__file__).parents[1] / "src")
    script = (
        "import contextlib, io, json, sys\n"
        "import orbitdesigns\n"
        "loaded = [sorted(sys.modules)]\n"
        "from orbitdesigns import cli\n"
        f"for argv in {list(commands)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    loaded.append(sorted(sys.modules))\n"
        "print(json.dumps(loaded))\n")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return [set(names) for names in json.loads(run.stdout)]


def test_bare_import_loads_no_submodule_and_no_numpy():
    (loaded,) = _modules_after()
    assert "numpy" not in loaded
    assert sorted(m for m in loaded if m.startswith("orbitdesigns.")) == []


def test_verify_loads_neither_groups_nor_pairscan():
    cert = Path(__file__).parents[1] / "perfbench" / "certificates" / "h4_t6_x1_y2.json"
    _, loaded = _modules_after(["verify", str(cert)])
    assert "orbitdesigns.unions" in loaded
    assert {"orbitdesigns.groups", "orbitdesigns.pairscan"} & loaded == set()


def test_only_scan_loads_pairscan():
    _, after_union, after_reproduce, after_scan = _modules_after(
        ["union", "H4", "--x", "@1", "--y", "@2", "--t", "6"], ["reproduce", "A"],
        ["scan", "binI"])
    assert "orbitdesigns.groups" in after_union
    assert "orbitdesigns.pairscan" not in after_reproduce  # after_union is a subset
    assert "orbitdesigns.pairscan" in after_scan
