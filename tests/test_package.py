"""Package surface: the public names exported by orbitdesigns."""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

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
    assert missing == []


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


def test_init_imports_exactly_the_exports():
    # the unused-import check leaves __init__.py out, so a name imported there
    # but dropped from __all__ would go unnoticed
    tree = ast.parse(Path(orbitdesigns.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    assert sorted(imported) == sorted(orbitdesigns.__all__)
