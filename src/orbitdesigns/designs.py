"""Design potentials and strength certification.

The potential of a weighted line set is sum_{x,y} w_x w_y |<x,y>|^(2t); a set
is a (t,t)-design exactly when the potential meets the field's Welch constant
c_t. Potentials are accumulated blockwise with exact summation and never
materialize the full Gram matrix.

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

import numpy as np

from .errors import ConsistencyError, MismatchError
from .numerics import DEFAULT_TOL, Rational, Tolerance, _intern, compensated_sums
from .orbits import LineSet

# The bits of a Gram entry depend on the rows in its matrix product, so the
# product keeps fixed blocks; the terms are cut finer to stay in cache.
_GRAM_TERMS = 1 << 18  # Gram entries per matrix product
_BLOCK_TERMS = 1 << 15  # soft cap on terms per block handed to the accumulator


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

    orders is a sequence of positive ints. One pass over the row blocks of A
    serves every order: each block's terms for all orders go to one exact
    accumulator (numerics.compensated_sums), and u^t is formed left to right
    (u, u*u, (u*u)*u, ...) for every t.
    """
    orders = list(orders)
    if any(t < 1 for t in orders):
        raise ValueError("t >= 1 required")
    if not orders:
        return []
    return compensated_sums(_terms(A, wa, B, wb, orders), len(orders))


def _terms(A: np.ndarray, wa: np.ndarray, B: np.ndarray, wb: np.ndarray,
           orders: list[int], odd: bool = False):
    """Blocks of terms, one row per order: wa wb |<a,b>|^(2t), times <a,b>
    when odd (real lines), for a run of rows a of A against every b of B."""
    n = max(1, B.shape[0])
    Bc = B.conj().T
    by_order = sorted(range(len(orders)), key=orders.__getitem__)
    gram_rows = max(1, _GRAM_TERMS // n)
    rows = max(1, _BLOCK_TERMS // (len(orders) * n))
    for start in range(0, A.shape[0], gram_rows):
        gram = A[start:start + gram_rows] @ Bc
        for sub in range(0, len(gram), rows):
            M = gram[sub:sub + rows]
            u = (M * M.conj()).real if np.iscomplexobj(M) else M * M
            ww = wa[start + sub:start + sub + len(M), None] * wb[None, :]
            block = np.empty((len(orders),) + M.shape)
            power, t = u.copy(), 1
            for i in by_order:
                while t < orders[i]:
                    power *= u
                    t += 1
                np.multiply(ww, power, out=block[i])
                if odd:
                    block[i] *= M
            yield block.reshape(len(orders), -1)


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
    return DesignReport(ts, pots, targets, residuals, certified_strength(residuals, tol),
                        X.signed)


def certified_strength(residuals, tol: Tolerance) -> int:
    """The largest t with |residual| <= rel_eq at every order 1..t, residuals
    being (potential - c_t)/c_t for t = 1, 2, ..."""
    s = 0
    for t, r in enumerate(residuals, start=1):
        if abs(r) > tol.rel_eq:
            break
        s = t
    return s


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
    index: dict[bytes, int] = {}
    own = _intern(V, index, tol.dedup_digits)
    n = len(index)
    partner = _intern(-V, index, tol.dedup_digits)
    paired = bool((partner < n).all())
    if paired:
        # the partner of row i is the last row of V with the key of -V[i]
        _, last = np.unique(own[::-1], return_index=True)
        paired = not (np.abs(w - w[len(V) - 1 - last[partner]]) > tol.rel_eq).any()
    even = moments(V, w, V, w, [t])[0]

    # <x,y>^(2t) <x,y> flips sign exactly with <x,y>, so +-x pairs cancel
    odd = compensated_sums(_terms(V, w, V, w, [t], odd=True), 1)[0]
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
