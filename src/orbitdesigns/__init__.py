"""Weighted projective designs from unions of finite-group orbits.

Build a finite unitary group, orbit seed vectors into weighted line sets,
solve the two-orbit weighting quadratic for exact rational weights, certify
design strength against the Welch bounds, and read off the group's invariant
harmonics where two generic orbits pair into a design (the double-root identity).

Importing the package loads no submodule: each public name imports the
module that defines it on first use.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # public name -> the module that defines it
    **dict.fromkeys(["DesignReport", "cross_matrix", "strength", "welch_constant"], "designs"),
    **dict.fromkeys(["CertificateError", "ConsistencyError", "InputError", "MismatchError",
                     "NoSolutionError", "NumericRangeError", "OrbitDesignsError",
                     "SizeLimitError"], "errors"),
    **dict.fromkeys(["CatalogEntry", "FiniteMatrixGroup", "GroupSpec", "build_group", "catalog",
                     "catalog_entry", "close_group", "group_order", "parse_group_spec"],
                    "groups"),
    "snap_to_rational": "numerics",
    **dict.fromkeys(["LineSet", "format_vector", "orbit_lines", "parse_vector",
                     "union_lines"], "orbits"),
    **dict.fromkeys(["PairSample", "PairScanReport", "scan"], "pairscan"),
    **dict.fromkeys(["PairQuadratic", "RootSolution", "UnionSolution", "VerifyResult",
                     "emit_certificate", "solve_union", "verify_certificate"], "unions"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # PEP 562: called only for names not yet in the module's namespace
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
