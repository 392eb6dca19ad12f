"""Design potentials and strength certification.

The potential of a weighted line set is sum_{x,y} w_x w_y |<x,y>|^(2t); a set
is a (t,t)-design exactly when the potential meets the field's Welch constant
c_t. Every potential is taken at the orders t = 1..T in one pass, accumulated
blockwise with exact summation, without materializing the full Gram matrix;
a single order t is row t - 1 of that pass. Since |<x,y>| = |<y,x>|, a set
summed against itself takes each unordered pair once and doubles the term of
a pair of distinct lines, half the terms of the full sum.

For a unitary group G, |<gx,gy>| = |<x,y>|, so every line of one G-orbit has
the same Gram row sum against a G-invariant set: the cross potential of two
orbits of one group (LineSet.group) sums one row, the first line carrying the
orbit's weight, and any other pair sums every row. cross_matrix(sets, T),
the one entry point to the potentials, holds them for k sets as
P[t - 1, i, j]; the union weighted w has potential w^T P[t - 1] w at order t,
and strength(X, T) reports on P[:, 0, 0] of cross_matrix([X], T).

A real (t,t)-design doubled to +-x, each with half its line's weight, is a
spherical (2t+1)-design: its order-2t moment is the design's potential, and
its odd moments cancel in antipodal pairs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError, MismatchError
from .numerics import GRAM_TILE, REL_EQ, compensated_sums
from .orbits import LineSet

# The bits of a Gram entry depend on the rows and columns of its matrix
# product, so the Gram tiles are cut by the row count alone, never by t_max,
# each at most GRAM_TILE entries; a tile's terms are cut finer by t_max,
# which moves no bits, into blocks of at most GRAM_TILE terms (a soft cap:
# one row at every order is the least a block holds).


def _welch_fractions(field: str, d: int):
    """(num, den) of c_t over R^d or C^d for t = 1, 2, ..., as running products:
    c_t is prod_{i<t} (i + 1)/(d + i) = 1/binom(t + d - 1, t) over C and
    prod_{i<t} (2i + 1)/(d + 2i) over R."""
    if field not in ("R", "C"):
        raise ValueError(f"field must be 'R' or 'C', got {field!r}")
    step = 2 if field == "R" else 1
    num = den = 1
    for i in itertools.count():
        num *= step * i + 1
        den *= d + step * i
        yield num, den


def welch_constant(field: str, d: int, t: int) -> Fraction:
    """c_t over R^d or C^d as an exact rational."""
    if d < 1 or t < 1:
        raise ValueError("need d >= 1 and t >= 1")
    return Fraction(*next(itertools.islice(_welch_fractions(field, d), t - 1, None)))


def welch_targets(field: str, d: int, t_max: int) -> list[float]:
    """[float(c_t) for t = 1..t_max] in one pass; int true division rounds
    num/den correctly, as float(welch_constant(field, d, t)) does."""
    return [num / den for num, den in itertools.islice(_welch_fractions(field, d), t_max)]


def moments(A: np.ndarray, wa: np.ndarray, B: np.ndarray, wb: np.ndarray,
            t_max: int) -> list[float]:
    """[sum_{a,b} wa wb |<a,b>|^(2t) for t = 1..t_max], each correctly rounded.

    One pass over the row blocks of A serves every order: each block's terms
    for all orders go to one exact accumulator (numerics.compensated_sums),
    and u^t is formed left to right (u, u*u, (u*u)*u, ...).
    """
    if t_max < 1:
        raise ValueError("t_max >= 1 required")
    return compensated_sums(_terms(A, wa, B, wb, t_max), t_max)


def _terms(A: np.ndarray, wa: np.ndarray, B: np.ndarray, wb: np.ndarray, t_max: int):
    """Blocks of terms, row t - 1 for order t: wa wb |<a,b>|^(2t), for a run
    of rows a of A against the columns b of B.

    A set against itself (A is B and wa is wb) meets each unordered pair
    once: a run of rows meets only the columns from its own first row on, the
    term of a pair a < b is doubled, which is exact, (a, a) counts once, and a
    pair below the diagonal, in the run's square part, counts zero times.
    """
    same = A is B and wa is wb
    Bc = B.conj().T
    start = 0
    while start < A.shape[0]:
        first = start if same else 0  # the tile's first column
        cols = max(1, B.shape[0] - first)
        stop = start + max(1, GRAM_TILE // cols)
        gram = A[start:stop] @ Bc[:, first:]
        u = np.multiply(gram, gram.conj(), out=gram).real  # |<a,b>|^2; the tile is not read again
        rows = max(1, GRAM_TILE // (t_max * cols))
        for sub in range(0, len(u), rows):
            skip = sub if same else 0
            U = u[sub:sub + rows, skip:]
            ww = wa[start + sub:start + sub + len(U), None] * wb[None, first + skip:]
            block = np.empty((t_max,) + U.shape)
            power = np.ones_like(U)
            for row in block:
                power *= U
                np.multiply(ww, power, out=row)
            if same:  # 0 below the diagonal, 1 on it, 2 above
                block *= 2.0 - np.tri(*U.shape) - np.tri(*U.shape, -1)
            yield block.reshape(t_max, -1)
        start = stop


def cross_matrix(sets, t_max: int) -> np.ndarray:
    """P[t - 1, i, j], the cross potential of sets[i] and sets[j] at order t
    for t = 1..t_max: one moments call per pair i <= j, mirrored.

    When sets[i] and sets[j] are orbits of one group, sets[i] gives one row,
    its first line with its total weight; otherwise every line is a row with
    its own weight.
    """
    P = np.empty((max(t_max, 0), len(sets), len(sets)))  # moments rejects t_max < 1
    for i, j in itertools.combinations_with_replacement(range(len(sets)), 2):
        X, Y = sets[i], sets[j]
        if X.dim != Y.dim or X.field != Y.field:
            raise MismatchError("potentials need matching dimension and field")
        rows, weights = X.lines, X.weights
        if X.group is not None and Y.group is X.group:
            for S in (Y, X):
                if (S.weights != S.weights[0]).any():
                    raise ConsistencyError(f"weights vary within an orbit of {S.group.spec}")
            rows, weights = X.lines[:1], X.weights[:1] * X.n_lines
        P[:, i, j] = P[:, j, i] = moments(rows, weights, Y.lines, Y.weights, t_max)
    return P


@dataclass(frozen=True)
class DesignReport:
    """Per-order potentials against Welch targets and the certified strength.

    potentials and residuals are indexed by t - 1 for t = 1..T; residuals are
    (potential - c_t)/c_t, and strength is the largest t with |residual| <=
    REL_EQ for every order up to t.
    """

    potentials: tuple
    residuals: tuple
    strength: int

    def residual_at(self, t: int) -> float:
        if not 1 <= t <= len(self.residuals):
            raise ValueError(f"t={t} is outside the report's orders 1..{len(self.residuals)}")
        return self.residuals[t - 1]

    @classmethod
    def build(cls, field: str, dim: int, potentials) -> DesignReport:
        """The report on potentials for t = 1..len(potentials) over field^dim."""
        targets = welch_targets(field, dim, len(potentials))
        residuals = tuple((p - c) / c for p, c in zip(potentials, targets))
        missed = [t for t, r in enumerate(residuals, start=1) if abs(r) > REL_EQ]
        return cls(tuple(potentials), residuals, min(missed, default=len(residuals) + 1) - 1)


def strength(X: LineSet, t_max: int = 12) -> DesignReport:
    """Evaluate potentials for t = 1..t_max and certify the design strength."""
    return DesignReport.build(X.field, X.dim, cross_matrix([X], t_max)[:, 0, 0].tolist())
