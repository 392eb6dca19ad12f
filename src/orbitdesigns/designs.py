"""Design potentials and strength certification.

The potential of a weighted line set is sum_{x,y} w_x w_y |<x,y>|^(2t); a set
is a (t,t)-design exactly when the potential meets the field's Welch constant
c_t. Potentials are accumulated blockwise with exact compensated summation and
never materialize the full Gram matrix.

For a unitary group G, |<gx,gy>| = |<x,y>|, so against a G-invariant set every
line of one G-orbit has the same Gram row sum. A union of orbits of one group
(LineSet.group and orbit_starts) therefore sums one Gram row per orbit, the
orbit's first line carrying its total weight; any other set sums every row.
verify_certificate keeps the full sum, independent of orbit structure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import ConsistencyError, MismatchError
from .numerics import DEFAULT_TOL, Rational, Tolerance, compensated_sum, quantized_keys
from .orbits import LineSet

_BLOCK_TERMS = 1 << 18  # soft cap on terms materialized per block


def welch_constant(field: str, d: int, t: int) -> Rational:
    """c_t over R^d or C^d as an exact rational."""
    if d < 1 or t < 1:
        raise ValueError("need d >= 1 and t >= 1")
    if field == "C":
        return Fraction(1, math.comb(t + d - 1, t))
    if field == "R":
        num = 1
        den = 1
        for i in range(t):
            num *= 2 * i + 1
            den *= d + 2 * i
        return Fraction(num, den)
    raise ValueError(f"field must be 'R' or 'C', got {field!r}")


def moments(A: np.ndarray, wa: np.ndarray, B: np.ndarray, wb: np.ndarray,
            orders) -> list[float]:
    """[sum_{a,b} wa wb |<a,b>|^(2t) for t in orders], each correctly rounded.

    orders is a sequence of positive ints. Row blocks of A are streamed so at
    most one block of terms is held at a time; u^t is formed left to right
    (u, u*u, (u*u)*u, ...) for every t.
    """
    if any(t < 1 for t in orders):
        raise ValueError("t >= 1 required")
    rows = max(1, _BLOCK_TERMS // max(1, B.shape[0]))
    Bc = B.conj().T

    def terms(t: int):
        for start in range(0, A.shape[0], rows):
            M = A[start:start + rows] @ Bc
            u = (M * M.conj()).real if np.iscomplexobj(M) else M * M
            power = u
            for _ in range(t - 1):
                power = power * u
            yield ((wa[start:start + rows, None] * wb[None, :]) * power).ravel().tolist()

    return [compensated_sum(chain.from_iterable(terms(t))) for t in orders]


def _rows(X: LineSet, Y: LineSet) -> tuple[np.ndarray, np.ndarray]:
    """Rows and row weights whose moments against Y's lines equal X's.

    When X and Y are orbit unions of one group, each orbit block of X gives its
    first line with the block's total weight; otherwise every line of X is a
    row with its own weight.
    """
    if X.group is None or Y.group is not X.group:
        return X.lines, X.weights
    for S in (Y, X):  # X last: its starts and sizes make the rows
        starts = list(S.orbit_starts)
        sizes = np.diff(S.orbit_starts + (S.n_lines,))
        if (np.repeat(S.weights[starts], sizes) != S.weights).any():
            raise ConsistencyError(f"weights vary within an orbit of {S.group.spec}")
    return X.lines[starts], X.weights[starts] * sizes


def potential(X: LineSet, t: int) -> float:
    """Design potential of X at order t."""
    return moments(*_rows(X, X), X.lines, X.weights, [t])[0]


def cross_potential(X: LineSet, Y: LineSet, t: int) -> float:
    """Mixed potential sum_{x in X, y in Y} w_x w_y |<x,y>|^(2t)."""
    if X.dim != Y.dim or X.field != Y.field:
        raise MismatchError("cross potential needs matching dimension and field")
    return moments(*_rows(X, Y), Y.lines, Y.weights, [t])[0]


@dataclass(frozen=True)
class DesignReport:
    """Per-order potentials against Welch targets and the certified strength.

    strength is the largest t with |residual| <= rel_eq for every order up to
    t; residuals are (potential - c_t)/c_t.
    """

    t_values: tuple
    potentials: tuple
    targets: tuple  # exact Fractions
    residuals: tuple
    strength: int
    signed: bool

    def residual_at(self, t: int) -> float:
        return self.residuals[self.t_values.index(t)]


def strength(X: LineSet, t_max: int = 12, tol: Tolerance = DEFAULT_TOL) -> DesignReport:
    """Evaluate potentials for t = 1..t_max and certify the design strength."""
    if t_max < 1:
        raise ValueError("t_max >= 1 required")
    ts = tuple(range(1, t_max + 1))
    pots = tuple(moments(*_rows(X, X), X.lines, X.weights, ts))
    targets = tuple(welch_constant(X.field, X.dim, t) for t in ts)
    residuals = tuple((p - float(c)) / float(c) for p, c in zip(pots, targets))
    s = 0
    for t, r in zip(ts, residuals):
        if abs(r) > tol.rel_eq:
            break
        s = t
    return DesignReport(ts, pots, targets, residuals, s, X.signed)


@dataclass(frozen=True)
class AntipodalSet:
    """A line set doubled to +-x vector pairs, each carrying half the weight.

    A real line set of strength t doubles to a spherical (2t+1)-design;
    spherical_order records 2*source_strength + 1 when the strength is known.
    """

    vectors: np.ndarray
    weights: np.ndarray
    source_strength: int | None = None

    @property
    def spherical_order(self) -> int | None:
        if self.source_strength is None:
            return None
        return 2 * self.source_strength + 1


def double_to_antipodal(X: LineSet, report: DesignReport | None = None) -> AntipodalSet:
    """Emit {x, -x} per line with half its weight each (real fields only)."""
    if X.field != "R":
        raise MismatchError("antipodal doubling is defined for real line sets")
    vectors = np.vstack([X.lines, -X.lines])
    weights = np.concatenate([X.weights, X.weights]) / 2.0
    return AntipodalSet(vectors, weights, report.strength if report else None)


def antipodal_design_check(aset: AntipodalSet, t: int, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Verify the doubled set is a spherical (2t+1)-design.

    Checks antipodal pairing with equal weights, the even-moment equality
    sum w_i w_j <x_i,x_j>^(2t) = c_t, and that the odd moment of order 2t+1
    vanishes; together these certify integration of all polynomials of degree
    <= 2t+1.
    """
    V, w = aset.vectors, aset.weights
    digits = tol.dedup_digits
    index = {key: i for i, key in enumerate(quantized_keys(V, digits))}
    paired = True
    for i, key in enumerate(quantized_keys(-V, digits)):
        j = index.get(key)
        if j is None or abs(w[i] - w[j]) > tol.rel_eq:
            paired = False
            break
    even = moments(V, w, V, w, [t])[0]

    def odd_terms():
        # <x,y>^(2t) <x,y> flips sign exactly with <x,y>, so +-x pairs cancel
        rows = max(1, _BLOCK_TERMS // max(1, V.shape[0]))
        for start in range(0, V.shape[0], rows):
            M = V[start:start + rows] @ V.T
            u = M * M
            power = u
            for _ in range(t - 1):
                power = power * u
            yield ((w[start:start + rows, None] * w[None, :]) * power * M).ravel().tolist()

    odd = compensated_sum(chain.from_iterable(odd_terms()))
    target = float(welch_constant("R", V.shape[1], t))
    even_residual = (even - target) / target
    passes = paired and abs(even_residual) <= tol.rel_eq and abs(odd) <= tol.rel_eq
    return {
        "paired": paired,
        "even_residual": even_residual,
        "odd_moment": odd,
        "spherical_order": 2 * t + 1,
        "passes": passes,
    }
