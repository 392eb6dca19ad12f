"""Scalar plumbing shared by every module: tolerance policy, compensated
summation, quantized dedup keys, and reconstruction of exact rationals from
floating point values.

All heavy arithmetic in this package is binary64; exact `Fraction` values
appear only at the reporting boundary, where a floating root or weight is
snapped to a rational and then re-verified.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import NumericRangeError

Rational = Fraction


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy knobs.

    rel_eq         relative tolerance for equality tests
    snap_denom_max largest denominator considered when snapping to a rational
    dedup_digits   decimal digits kept in quantized dedup keys
    """

    rel_eq: float = 1e-9
    snap_denom_max: int = 10 ** 6
    dedup_digits: int = 8

    def __post_init__(self) -> None:
        if not (self.rel_eq > 0):
            raise ValueError("rel_eq must be positive")
        if self.snap_denom_max < 1:
            raise ValueError("snap_denom_max must be >= 1")
        if self.dedup_digits < 1:
            raise ValueError("dedup_digits must be >= 1")


DEFAULT_TOL = Tolerance()


def compensated_sum(terms: Iterable[float]) -> float:
    """Sum a stream of floats with exact (Shewchuk) compensated accumulation.

    Deterministic for a fixed input order; in fact math.fsum returns the
    correctly rounded sum, so any order gives the same result unless the
    stream overflows.
    """
    try:
        total = math.fsum(terms)
    except OverflowError as exc:
        raise NumericRangeError("sum overflowed the floating range") from exc
    if not math.isfinite(total):
        raise NumericRangeError("sum is not finite")
    return total


def quantized_keys(items: np.ndarray, digits: int) -> list[bytes]:
    """Dedup key of each item along the first axis: its entries rounded to
    `digits` decimals."""
    # adding 0.0 maps -0.0 to +0.0 so signed zeros share a key
    return [item.tobytes() for item in np.round(items, digits) + 0.0]


def approx_eq(a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff |a-b| <= rel_eq * max(1, |a|, |b|)."""
    return abs(a - b) <= tol.rel_eq * max(1.0, abs(a), abs(b))


def snap_to_rational(x: float, tol: Tolerance = DEFAULT_TOL) -> Rational | None:
    """Best rational p/q with q <= snap_denom_max, or None if none is close.

    Uses the continued-fraction convergent and accepts it only when
    |x - p/q| <= rel_eq * max(1, |x|).
    """
    if not math.isfinite(x):
        return None
    cand = Fraction(x).limit_denominator(tol.snap_denom_max)
    if abs(x - cand) <= tol.rel_eq * max(1.0, abs(x)):
        return cand
    return None


def format_rational(r: Rational) -> str:
    """Render p/q (or plain p when q = 1)."""
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def parse_rational(s: str) -> Rational:
    """Parse 'p/q', an integer, or a decimal literal into a Fraction."""
    return Fraction(s.strip())
