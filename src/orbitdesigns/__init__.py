"""Weighted projective designs from unions of finite-group orbits.

Build a finite unitary group, orbit seed vectors into weighted line sets,
solve the two-orbit weighting quadratic for exact rational weights, certify
design strength against the Welch bounds, and read off the group's invariant
harmonics where two generic orbits pair into a design (the double-root identity).
"""
from .designs import (
    DesignReport,
    cross_potential,
    potential,
    strength,
    welch_constant,
)
from .errors import (
    CertificateError,
    ConsistencyError,
    DegeneracyError,
    InputError,
    KeyCollisionError,
    MismatchError,
    NoSolutionError,
    NumericRangeError,
    OrbitDesignsError,
    SizeLimitError,
)
from .groups import (
    CatalogEntry,
    FiniteMatrixGroup,
    GroupSpec,
    build_group,
    catalog,
    catalog_entry,
    close_group,
    group_order,
    parse_group_spec,
    unitarize,
)
from .numerics import (
    DEFAULT_TOL,
    Rational,
    Tolerance,
    compensated_sum,
    format_rational,
    parse_rational,
    snap_to_rational,
)
from .orbits import LineSet, canonical_line, format_vector, orbit_lines, parse_vector, union_lines
from .pairscan import PairSample, PairScanReport, scan
from .unions import (
    PairQuadratic,
    RootSolution,
    UnionSolution,
    VerifyResult,
    emit_certificate,
    pair_quadratic,
    solve_union,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CertificateError",
    "ConsistencyError",
    "DEFAULT_TOL",
    "DegeneracyError",
    "DesignReport",
    "FiniteMatrixGroup",
    "GroupSpec",
    "InputError",
    "KeyCollisionError",
    "LineSet",
    "MismatchError",
    "NoSolutionError",
    "NumericRangeError",
    "OrbitDesignsError",
    "PairQuadratic",
    "PairSample",
    "PairScanReport",
    "Rational",
    "RootSolution",
    "SizeLimitError",
    "Tolerance",
    "UnionSolution",
    "VerifyResult",
    "build_group",
    "canonical_line",
    "catalog",
    "catalog_entry",
    "close_group",
    "compensated_sum",
    "cross_potential",
    "emit_certificate",
    "format_rational",
    "format_vector",
    "group_order",
    "orbit_lines",
    "pair_quadratic",
    "parse_group_spec",
    "parse_rational",
    "parse_vector",
    "potential",
    "scan",
    "snap_to_rational",
    "solve_union",
    "strength",
    "union_lines",
    "unitarize",
    "verify_certificate",
    "welch_constant",
]
