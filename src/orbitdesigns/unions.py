"""Solve the union-weighting quadratic for a pair of line sets.

For weighted line sets X, Y write b_XY = sum_{x,y} w_x w_y |<x,y>|^(2t).
The union with weights (alpha w^X, (1-alpha) w^Y) is a (t,t)-design iff

    A alpha^2 + B alpha + C = 0,
    A = b_xx + b_yy - 2 b_xy,  B = 2 b_xy - 2 b_yy,  C = b_yy - c_t.

The left side is the union's potential minus c_t. For unit lines and any real
weights summing to 1 the potential is at least c_t (the Welch bound, the
variational characterisation of designs), so the quadratic is >= 0 for every
real alpha: A >= 0 and B^2 - 4AC <= 0. A real root is therefore a double root,
alpha = (b_yy - b_xy)/A, and it exists exactly when the pair identity
b_xx b_yy - b_xy^2 = c_t A holds; pair_identity is the one test for it.

The coefficients come from P[t - 1], P the pair's designs.cross_matrix, and
solve_union(X, Y, t).quad holds them with the potentials b_xx, b_yy, b_xy.
Roots are snapped to rationals, re-verified by substitution and by a strength
report on the union's potentials w^T P w, and can be serialized as a JSON
certificate.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .designs import DesignReport, cross_matrix, strength, welch_constant
from .errors import CertificateError, NoSolutionError, SizeLimitError
from .numerics import REL_EQ, _json_complex, _json_number, snap_to_rational
from .orbits import LineSet, union_lines

IDENTITY_TOL = 1e-7  # pair_identity residual at or below this is a double root


@dataclass(frozen=True)
class PairQuadratic:
    """Quadratic coefficients and the potentials they are built from."""

    a: float
    b: float
    c: float
    b_xx: float
    b_yy: float
    b_xy: float
    c_t: Fraction

    @property
    def scale(self) -> float:
        return max(abs(self.b_xx), abs(self.b_yy), abs(self.b_xy), float(self.c_t))


@dataclass(frozen=True)
class RootSolution:
    """The double root of the union quadratic, snapped and re-verified."""

    alpha: float
    beta: tuple | None  # (Fraction, Fraction) when the root snapped
    w_hat: tuple | None
    residual: float  # |A a^2 + B a + C| at the (snapped) root
    convex: bool
    boundary: bool


@dataclass(frozen=True)
class UnionSolution:
    """Full outcome of solve_union for one (X, Y, t)."""

    t: int
    quad: PairQuadratic
    discriminant: float
    degenerate: bool  # both sets are t-designs: any weighting works
    identity_residual: float | None  # pair_identity; None when degenerate
    root: RootSolution | None  # the double root, when the identity holds
    union: LineSet | None
    verified: DesignReport | None

    @property
    def empty(self) -> bool:
        return self.root is None and not self.degenerate


def _build_root(alpha: float, q: PairQuadratic, n_x: int, n_y: int) -> RootSolution:
    snapped = snap_to_rational(alpha)
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
    return RootSolution(a_val, beta, w_hat, residual, convex, boundary)


def solve_union(X: LineSet, Y: LineSet, t: int, t_max: int = 12) -> UnionSolution:
    """Solve the union quadratic, snap its root, and verify the weighted union.

    The pair is degenerate when pair_identity finds both sets t-designs. It
    has a root when the identity holds within IDENTITY_TOL and A survives the
    dust zeroing (coefficients within REL_EQ of zero, relative to the
    potential scale, count as zero); the root is then the double root -B/(2A).
    A snapped root's union is assembled and its strength certified up to
    max(t, t_max), on the potentials w^T P w with w the float beta.
    """
    P = cross_matrix([X, Y], max(t, t_max))
    (b_xx, b_xy), (_, b_yy) = P[t - 1].tolist()
    c_t = welch_constant(X.field, X.dim, t)
    q = PairQuadratic(b_xx + b_yy - 2.0 * b_xy, 2.0 * b_xy - 2.0 * b_yy, b_yy - float(c_t),
                      b_xx, b_yy, b_xy, c_t)
    residual = pair_identity(b_xx, b_yy, b_xy, float(c_t))
    eps = REL_EQ * q.scale
    a, b, c = (v if abs(v) > eps else 0.0 for v in (q.a, q.b, q.c))
    root = union = verified = None
    if residual is not None and residual <= IDENTITY_TOL and a != 0.0:
        root = _build_root(-b / (2.0 * a), q, X.n_lines, Y.n_lines)
    if root is not None and root.beta is not None:
        union = union_lines(X, Y, root.beta)
        w = np.array(root.beta, dtype=float)
        verified = DesignReport.build(X.field, X.dim, (w @ P @ w).tolist())
    return UnionSolution(
        t=t, quad=q, discriminant=b * b - 4.0 * a * c,
        degenerate=residual is None, identity_residual=residual, root=root,
        union=union, verified=verified,
    )


def pair_identity(b_xx: float, b_yy: float, b_xy: float, c_t: float) -> float | None:
    """Relative residual of the double-root identity b_xx b_yy - b_xy^2 = c_t A.

    The identity says the discriminant B^2 - 4AC of the union quadratic
    vanishes. The difference of its sides is formed from the deviations
    d = b - c_t, as d_xx d_yy - d_xy^2, which keeps its digits when both sets
    are near designs; it is taken relative to the larger side. Returns None
    when both line sets are t-designs (degenerate: both sides vanish), and 0.0
    when both sides are exactly zero (coinciding sets).
    """
    d_xx, d_yy, d_xy = b_xx - c_t, b_yy - c_t, b_xy - c_t
    if abs(d_xx) <= REL_EQ * c_t and abs(d_yy) <= REL_EQ * c_t:
        return None
    lhs = b_xx * b_yy - b_xy * b_xy
    rhs = c_t * (b_xx + b_yy - 2.0 * b_xy)
    if lhs == rhs == 0.0:
        return 0.0
    return abs(d_xx * d_yy - d_xy * d_xy) / max(abs(lhs), abs(rhs))


def _serialize_lines(lines: np.ndarray) -> list:
    if np.iscomplexobj(lines):
        return [[[float(z.real), float(z.imag)] for z in row] for row in lines]
    return [[float(x) for x in row] for row in lines]


def _parse_lines(data: list, field: str) -> np.ndarray:
    entry = _json_complex if field == "C" else _json_number
    return np.array([[entry(e) for e in row] for row in data])


def emit_certificate(sol: UnionSolution, X: LineSet, Y: LineSet,
                     path: str | None = None) -> dict:
    """Serialize the root's weighted union as a certificate.

    Residuals are stored for t = 1..verified strength, each of which passed
    the design equality; verify_certificate recomputes them from the stored
    lines and weights alone.
    """
    best = sol.root
    if best is None or best.beta is None or sol.union is None or sol.verified is None:
        raise NoSolutionError("certificate needs a snapped root")
    top = max(sol.verified.strength, sol.t)
    residuals = {
        str(t): sol.verified.residual_at(t)
        for t in range(1, top + 1)
    }
    cert = {
        "schema": 1,
        "group": X.group.spec.label if X.group is not None else "explicit",
        "field": X.field,
        "dim": X.dim,
        "t": sol.t,
        "seeds": [X.seed_literal or "", Y.seed_literal or ""],
        "lines": _serialize_lines(sol.union.lines),
        "weights": [str(w) for w in sol.union.exact_weights],
        "beta": [str(b) for b in best.beta],
        "w_hat": [str(w) for w in best.w_hat],
        "residuals": residuals,
        "signed": bool(sol.union.signed),
    }
    if path is not None:
        try:
            with open(path, "w") as fh:
                json.dump(cert, fh, indent=1)
                fh.write("\n")
        except OSError as exc:
            raise CertificateError(f"cannot write certificate: {exc}") from exc
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


def verify_certificate(source, t_max: int = 12) -> VerifyResult:
    """Re-verify a certificate from its stored lines and weights.

    Every order 1..t is recomputed, with any further stored order, by
    designs.strength on the stored set; it has no group, so every Gram row is
    summed. An order 1..t with no stored residual fails, and so does a
    `signed` claim that disagrees with the weights. Lines that are not unit
    fail with no order recomputed. Structural problems
    raise CertificateError, and a t or stored order above t_max raises
    SizeLimitError before any potential is computed; numerical discrepancies
    are verification failures reported in `reasons`.
    """
    cert = _load_certificate(source)
    if not isinstance(cert, dict):
        raise CertificateError("certificate must be a JSON object")
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
        if not all(isinstance(x, str) for x in cert["weights"]):
            raise TypeError("weights must be rational strings")
        counts = Counter(cert["weights"])  # in file order: the first bad string is named
        parsed = {s: Fraction(s) for s in counts}
        weights = [parsed[s] for s in cert["weights"]]
        X = LineSet(lines, tuple(weights))
        X.weights  # float(w) of each weight, so one past the floating range is malformed
    except (ValueError, TypeError, IndexError, ZeroDivisionError, OverflowError) as exc:
        raise CertificateError(f"malformed lines or weights: {exc}") from exc
    if lines.ndim != 2 or lines.shape[1] != cert["dim"]:
        raise CertificateError("line entries do not match the stated dimension")
    if not np.isfinite(lines).all():
        raise CertificateError("line entries must be finite numbers")
    if len(weights) != lines.shape[0]:
        raise CertificateError("one weight per line required")
    try:
        held = {int(t): _json_number(r) for t, r in cert["residuals"].items()}
    except (ValueError, TypeError) as exc:
        raise CertificateError(f"malformed residuals: {exc}") from exc
    if min(held, default=1) < 1 or len(held) != len(cert["residuals"]):
        raise CertificateError("residual orders must be distinct positive integers")
    if not all(math.isfinite(r) for r in held.values()):
        raise CertificateError("stored residuals must be finite numbers")
    top = max(held.keys() | {cert["t"]})
    if top > t_max:
        raise SizeLimitError(f"certificate claims order {top}, above t_max={t_max}")

    reasons = []
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        deviation = np.abs(np.linalg.norm(lines, axis=1) - 1.0).max()
    if deviation > REL_EQ:
        reasons.append(f"line norms deviate from 1 by {deviation:.3e}")
    wsum = sum((n * parsed[s] for s, n in counts.items()), Fraction(0))
    if wsum != 1:
        reasons.append(f"weights sum to {wsum}, not 1")
    if cert["signed"] != any(x < 0 for x in parsed.values()):
        reasons.append(f"signed is {str(cert['signed']).lower()}, but "
                       f"{'no' if cert['signed'] else 'some'} weight is negative")
    if deviation > REL_EQ:  # potentials of lines that are not unit mean nothing
        return VerifyResult(False, tuple(reasons), {})
    orders = sorted(held.keys() | set(range(1, cert["t"] + 1)))
    report = strength(X, top)
    residuals = {}
    for t in orders:
        recomputed = report.residual_at(t)
        if abs(recomputed) > REL_EQ:
            reasons.append(f"t={t}: recomputed residual {recomputed:.3e} exceeds tolerance")
        if t not in held:
            reasons.append(f"t={t}: no stored residual")
            continue
        residuals[t] = (held[t], recomputed)
        if abs(recomputed - held[t]) > REL_EQ:
            reasons.append(f"t={t}: stored residual {held[t]:.3e} disagrees "
                           f"with recomputed {recomputed:.3e}")
    return VerifyResult(not reasons, tuple(reasons), residuals)
