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

A real (t,t)-design doubled to +-x, each with half its line's weight, is a
spherical (2t+1)-design: its order-2t moment is the design's potential, and
its odd moments cancel in antipodal pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError, MismatchError
from .numerics import DEFAULT_TOL, Rational, Tolerance, compensated_sums
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


def _terms(A: np.ndarray, wa: np.ndarray, B: np.ndarray, wb: np.ndarray, orders: list[int]):
    """Blocks of terms, one row per order: wa wb |<a,b>|^(2t), for a run of
    rows a of A against every b of B."""
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
    missed = [t for t, r in zip(ts, residuals) if abs(r) > tol.rel_eq]
    return DesignReport(ts, pots, targets, residuals, min(missed, default=t_max + 1) - 1,
                        X.signed)
