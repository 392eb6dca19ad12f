"""Solve the union-weighting quadratic for a pair of line sets.

For weighted line sets X, Y write b_XY = sum_{x,y} w_x w_y |<x,y>|^(2t).
The union with weights (alpha w^X, (1-alpha) w^Y) is a (t,t)-design iff

    A alpha^2 + B alpha + C = 0,
    A = b_xx + b_yy - 2 b_xy,  B = 2 b_xy - 2 b_yy,  C = b_yy - c_t.

Roots are snapped to rationals, re-verified by substitution and by a strength
report on the weighted union, and can be serialized as a JSON certificate.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .designs import DesignReport, cross_potential, moments, potential, strength, welch_constant
from .errors import CertificateError, MismatchError, NoSolutionError
from .numerics import (
    DEFAULT_TOL,
    Rational,
    Tolerance,
    format_rational,
    parse_rational,
    snap_to_rational,
)
from .orbits import LineSet, union_lines

DOUBLE_ROOT_TOL = 1e-8  # identity tolerance for the discriminant-zero check
ROOT_COLLAPSE_TOL = 1e-6  # two roots closer than this (relative) are one double root


@dataclass(frozen=True)
class PairQuadratic:
    """Quadratic coefficients and the potentials they are built from."""

    a: float
    b: float
    c: float
    b_xx: float
    b_yy: float
    b_xy: float
    c_t: Rational

    @property
    def scale(self) -> float:
        return max(abs(self.b_xx), abs(self.b_yy), abs(self.b_xy), float(self.c_t))


@dataclass(frozen=True)
class RootSolution:
    """One root of the union quadratic, snapped and re-verified."""

    alpha: float
    beta: tuple | None  # (Fraction, Fraction) when the root snapped
    w_hat: tuple | None
    residual: float  # |A a^2 + B a + C| at the (snapped) root
    convex: bool
    boundary: bool
    from_double_root: bool


@dataclass(frozen=True)
class UnionSolution:
    """Full outcome of solve_union for one (X, Y, t)."""

    t: int
    n_x: int
    n_y: int
    quad: PairQuadratic
    discriminant: float
    degenerate: bool  # all coefficients vanish: any weighting works
    roots: tuple
    preferred: int | None
    union: LineSet | None
    verified: DesignReport | None

    @property
    def empty(self) -> bool:
        return not self.roots and not self.degenerate

    @property
    def preferred_root(self) -> RootSolution | None:
        return self.roots[self.preferred] if self.preferred is not None else None


def pair_quadratic(X: LineSet, Y: LineSet, t: int,
                   tol: Tolerance = DEFAULT_TOL) -> PairQuadratic:
    """Coefficients of the union quadratic in alpha = beta_X."""
    if X.dim != Y.dim or X.field != Y.field:
        raise MismatchError("pair quadratic needs matching dimension and field")
    b_xx = potential(X, t)
    b_yy = potential(Y, t)
    b_xy = cross_potential(X, Y, t)
    c_t = welch_constant(X.field, X.dim, t)
    a = b_xx + b_yy - 2.0 * b_xy
    b = 2.0 * b_xy - 2.0 * b_yy
    c = b_yy - float(c_t)
    return PairQuadratic(a, b, c, b_xx, b_yy, b_xy, c_t)


def _solve_roots(q: PairQuadratic, tol: Tolerance) -> tuple[list[float], list[bool], bool, float]:
    """Float roots of the quadratic with near-zero handling.

    Coefficients within rel_eq of zero (relative to the potential scale) are
    treated as exactly zero; this resolves boundary rows where B and C vanish
    analytically but carry float dust. Returns (roots, is_double flags,
    degenerate, discriminant).
    """
    eps = tol.rel_eq * q.scale
    a = q.a if abs(q.a) > eps else 0.0
    b = q.b if abs(q.b) > eps else 0.0
    c = q.c if abs(q.c) > eps else 0.0
    disc = b * b - 4.0 * a * c
    if a == 0.0 and b == 0.0 and c == 0.0:
        return [], [], True, disc
    if a == 0.0 and b == 0.0:
        return [], [], False, disc
    if a == 0.0:
        return [-c / b], [False], False, disc
    if abs(disc) <= tol.rel_eq * max(b * b, abs(4.0 * a * c)):
        return [-b / (2.0 * a)], [True], False, disc
    if disc < 0.0:
        return [], [], False, disc
    sq = math.sqrt(disc)
    if b == 0.0:
        r = sq / (2.0 * a)
        roots = sorted([-r, r])
    else:
        # standard cancellation-free form
        qq = -(b + math.copysign(sq, b)) / 2.0
        roots = sorted([qq / a, c / qq])
    if abs(roots[0] - roots[1]) <= ROOT_COLLAPSE_TOL * max(1.0, abs(roots[0]), abs(roots[1])):
        return [(roots[0] + roots[1]) / 2.0], [True], False, disc
    return roots, [False, False], False, disc


def _build_root(alpha: float, double: bool, q: PairQuadratic, n_x: int, n_y: int,
                tol: Tolerance) -> RootSolution:
    snapped = snap_to_rational(alpha, tol)
    beta = w_hat = None
    a_val = alpha
    boundary = False
    if snapped is not None:
        beta = (snapped, 1 - snapped)
        w_hat = (snapped * (n_x + n_y) / n_x, (1 - snapped) * (n_x + n_y) / n_y)
        a_val = float(snapped)
        boundary = snapped == 0 or snapped == 1
    residual = abs(q.a * a_val * a_val + q.b * a_val + q.c)
    convex = (not boundary) and 0.0 < a_val < 1.0
    return RootSolution(a_val, beta, w_hat, residual, convex, boundary, double)


def solve_union(X: LineSet, Y: LineSet, t: int, tol: Tolerance = DEFAULT_TOL,
                t_max: int = 12) -> UnionSolution:
    """Solve the union quadratic, snap roots, and verify the preferred union.

    Root preference: convex interior root, then boundary {0, 1}, then signed;
    ties go to the root nearer 1/2. The preferred snapped root's union is
    assembled and its strength certified up to max(t, t_max).
    """
    q = pair_quadratic(X, Y, t, tol)
    raw_roots, doubles, degenerate, disc = _solve_roots(q, tol)
    roots = tuple(
        _build_root(r, d, q, X.n_lines, Y.n_lines, tol)
        for r, d in zip(raw_roots, doubles)
    )
    preferred = None
    if roots:
        def rank(i: int):
            r = roots[i]
            category = 0 if r.convex else (1 if r.boundary else 2)
            return (category, abs(r.alpha - 0.5), i)
        preferred = min(range(len(roots)), key=rank)
    union = verified = None
    best = roots[preferred] if preferred is not None else None
    if best is not None and best.beta is not None:
        union = union_lines(X, Y, best.beta, tol)
        verified = strength(union, max(t, t_max), tol)
    return UnionSolution(
        t=t, n_x=X.n_lines, n_y=Y.n_lines, quad=q, discriminant=disc,
        degenerate=degenerate, roots=roots, preferred=preferred,
        union=union, verified=verified,
    )


def pair_identity(b_xx: float, b_yy: float, b_xy: float, c_t: float,
                  tol: Tolerance = DEFAULT_TOL) -> float | None:
    """Relative residual of the double-root identity b_xx b_yy - b_xy^2 = c_t A.

    The identity says the discriminant B^2 - 4AC of the union quadratic
    vanishes. Returns None when both line sets are t-designs (degenerate: both
    sides vanish), and 0.0 when both sides are exactly zero (coinciding sets).
    """
    if abs(b_xx - c_t) <= tol.rel_eq * c_t and abs(b_yy - c_t) <= tol.rel_eq * c_t:
        return None
    lhs = b_xx * b_yy - b_xy * b_xy
    rhs = c_t * (b_xx + b_yy - 2.0 * b_xy)
    if lhs == rhs == 0.0:
        return 0.0
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


@dataclass(frozen=True)
class DoubleRootCheck:
    """Outcome of the discriminant-zero structure check.

    The quadratic has a double root exactly when pair_identity holds; then
    beta_X = (b_yy - b_xy)/(b_xx + b_yy - 2 b_xy) in closed form, unless A = 0
    (coinciding sets). For a pair of designs the check is vacuous (degenerate).
    """

    holds: bool
    degenerate: bool
    residual: float
    closed_beta: tuple | None  # (beta_x, beta_y) floats
    root_agreement: float | None

    def __bool__(self) -> bool:
        return self.holds


def check_double_root(sol: UnionSolution) -> DoubleRootCheck:
    """Test the double-root identity on a solved union."""
    q = sol.quad
    residual = pair_identity(q.b_xx, q.b_yy, q.b_xy, float(q.c_t))
    if residual is None:
        return DoubleRootCheck(True, True, 0.0, None, None)
    closed = agreement = None
    if q.a != 0.0:
        closed = ((q.b_yy - q.b_xy) / q.a, (q.b_xx - q.b_xy) / q.a)
        if sol.preferred_root is not None:
            agreement = abs(closed[0] - sol.preferred_root.alpha)
    return DoubleRootCheck(residual <= DOUBLE_ROOT_TOL, False, residual, closed, agreement)


def _serialize_lines(lines: np.ndarray) -> list:
    if np.iscomplexobj(lines):
        return [[[float(z.real), float(z.imag)] for z in row] for row in lines]
    return [[float(x) for x in row] for row in lines]


def _parse_lines(data: list, field: str) -> np.ndarray:
    if field == "C":
        return np.array([[complex(e[0], e[1]) for e in row] for row in data])
    return np.array([[float(e) for e in row] for row in data])


def emit_certificate(sol: UnionSolution, X: LineSet, Y: LineSet,
                     path: str | None = None) -> dict:
    """Serialize the preferred root's weighted union as a certificate.

    Residuals are stored for t = 1..verified strength, each of which passed
    the design equality; verify_certificate recomputes them from the stored
    lines and weights alone.
    """
    best = sol.preferred_root
    if best is None or best.beta is None or sol.union is None or sol.verified is None:
        raise NoSolutionError("certificate needs a snapped root")
    top = max(sol.verified.strength, sol.t)
    residuals = {
        str(t): sol.verified.residual_at(t)
        for t in range(1, top + 1)
    }
    exact_w = sol.union.exact_weights
    if exact_w is None:
        raise NoSolutionError("certificate needs exact union weights")
    cert = {
        "schema": 1,
        "group": X.group_label or "explicit",
        "field": X.field,
        "dim": X.dim,
        "t": sol.t,
        "seeds": [X.seed_literal or "", Y.seed_literal or ""],
        "lines": _serialize_lines(sol.union.lines),
        "weights": [format_rational(w) for w in exact_w],
        "beta": [format_rational(b) for b in best.beta],
        "w_hat": [format_rational(w) for w in best.w_hat],
        "residuals": residuals,
        "signed": bool(sol.union.signed),
    }
    if path is not None:
        with open(path, "w") as fh:
            json.dump(cert, fh, indent=1)
            fh.write("\n")
    return cert


@dataclass(frozen=True)
class VerifyResult:
    passed: bool
    reasons: tuple
    residuals: dict  # t -> (stored, recomputed)


_CERT_KEYS = {
    "schema": int, "group": str, "field": str, "dim": int, "t": int,
    "seeds": list, "lines": list, "weights": list, "beta": list,
    "w_hat": list, "residuals": dict, "signed": bool,
}


def _load_certificate(source) -> dict:
    if isinstance(source, dict):
        return source
    try:
        with open(source) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CertificateError(f"cannot read certificate: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CertificateError(f"certificate is not valid JSON: {exc}") from exc


def verify_certificate(source, tol: Tolerance = DEFAULT_TOL) -> VerifyResult:
    """Re-verify a certificate from its stored lines and weights.

    Every order 1..t is recomputed, with any further stored order; an order
    1..t with no stored residual fails. Structural problems raise
    CertificateError; numerical discrepancies are verification failures
    reported in `reasons`.
    """
    cert = _load_certificate(source)
    for key, typ in _CERT_KEYS.items():
        if key not in cert:
            raise CertificateError(f"certificate missing key {key!r}")
        # bool is a subclass of int, so JSON true would pass as an integer
        if not isinstance(cert[key], typ) or (typ is int and isinstance(cert[key], bool)):
            raise CertificateError(f"certificate key {key!r} has wrong type")
    if cert["schema"] != 1:
        raise CertificateError(f"unsupported schema {cert['schema']}")
    if cert["field"] not in ("R", "C"):
        raise CertificateError("field must be 'R' or 'C'")
    if cert["dim"] < 1 or cert["t"] < 1:
        raise CertificateError("dim and t must be positive")
    try:
        lines = _parse_lines(cert["lines"], cert["field"])
        weights = [parse_rational(w) for w in cert["weights"]]
        w = np.array([float(x) for x in weights])
    except (ValueError, TypeError, IndexError, ZeroDivisionError, OverflowError) as exc:
        raise CertificateError(f"malformed lines or weights: {exc}") from exc
    if lines.ndim != 2 or lines.shape[1] != cert["dim"]:
        raise CertificateError("line entries do not match the stated dimension")
    if not np.isfinite(lines).all():
        raise CertificateError("line entries must be finite numbers")
    if len(weights) != lines.shape[0]:
        raise CertificateError("one weight per line required")

    reasons = []
    norms = np.linalg.norm(lines, axis=1)
    if np.abs(norms - 1.0).max() > tol.rel_eq:
        reasons.append(f"line norms deviate from 1 by {np.abs(norms - 1.0).max():.3e}")
    wsum = sum(weights, Fraction(0))
    if wsum != 1:
        reasons.append(f"weights sum to {wsum}, not 1")
    try:
        held = {int(t): float(r) for t, r in cert["residuals"].items()}
    except (ValueError, TypeError) as exc:
        raise CertificateError(f"malformed residuals: {exc}") from exc
    if min(held, default=1) < 1 or len(held) != len(cert["residuals"]):
        raise CertificateError("residual orders must be distinct positive integers")
    if not all(math.isfinite(r) for r in held.values()):
        raise CertificateError("stored residuals must be finite numbers")
    orders = sorted(held.keys() | set(range(1, cert["t"] + 1)))
    residuals = {}
    for t, p in zip(orders, moments(lines, w, lines, w, orders)):
        c_t = float(welch_constant(cert["field"], cert["dim"], t))
        recomputed = (p - c_t) / c_t
        if abs(recomputed) > tol.rel_eq:
            reasons.append(f"t={t}: recomputed residual {recomputed:.3e} exceeds tolerance")
        if t not in held:
            reasons.append(f"t={t}: no stored residual")
            continue
        residuals[t] = (held[t], recomputed)
        if abs(recomputed - held[t]) > tol.rel_eq:
            reasons.append(f"t={t}: stored residual {held[t]:.3e} disagrees "
                           f"with recomputed {recomputed:.3e}")
    return VerifyResult(not reasons, tuple(reasons), residuals)
