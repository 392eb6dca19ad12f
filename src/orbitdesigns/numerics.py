"""Scalar plumbing shared by every module: the equality tolerance, exact
summation, quantized dedup keys, and reconstruction of exact rationals from
floating point values.

Every equality test in the package reads one relative tolerance, REL_EQ:
design residuals, unit norms, weight sums, canonical pivots, the rational
snap, a pair's degeneracy, the union quadratic's dust zeroing and the
unitarity of a group; it also picks the pairs of lines that might coincide.
Every dedup key keeps DEDUP_DIGITS decimals, and two lines coincide when
their vectors, aligned in phase, are within 10^-DEDUP_DIGITS. Every group
closure and orbit walk stops past MAX_ORDER elements or lines.

A few fixed thresholds also decide outcomes, each where it is used: the
pair identity's unions.IDENTITY_TOL and pairscan.FAILS_TOL, the Molien
means' pairscan.MOLIEN_TOL, the rational snap's SNAP_QUALITY_MAX and the
1e-12 cut on the imaginary parts of a real group's seed or generator file.

All heavy arithmetic in this package is binary64. Weights are exact: a
LineSet holds one `Fraction` per line and reads its float weights from them,
a floating root is snapped to a `Fraction` and re-verified, and a certificate
stores each Fraction as str(w), "p" or "p/q", which Fraction(s) reads back.
Every sum is correctly rounded: a potential by exact bucket accumulation over
numpy arrays (compensated_sums), a weight sum by math.fsum.

The module also reads the two JSON files, a generator file and a certificate
(_read_json), and their numbers (_json_number, _json_complex).
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import NumericRangeError

REL_EQ = 1e-9  # relative tolerance of every equality test
DEDUP_DIGITS = 8  # decimal digits kept in every dedup key
MAX_ORDER = 200_000  # elements or lines a closure or orbit walk may reach


# A finite double is x = f * 2^e with 1/2 <= |f| < 1 (frexp; 0 for zero), so
# x = M * 2^(8g) for its bucket g = e >> 3, where M = f * 2^(e & 7) is an
# integer multiple of 2^-53 below 2^7.
_BUCKETS = 264  # g + 135 runs over 0..263 for every double (nan and inf have e = 0)
_SHIFTS = 8 * np.arange(-135, 129, dtype=np.int32)  # bucket g counts in units of 2^(8g)
_SPLIT = 1.5 * 2.0 ** 29  # M + _SPLIT - _SPLIT rounds M to a multiple of 2^-23
_PENDING_MAX = 1 << 22  # columns summed into the buckets before they are flushed
# glibc serves an allocation above 128 KiB by mmap, so its pages are faulted
# in afresh and the peak RSS depends on what the process freed before. Of the
# working arrays of a potential's O(n^2) pass over a line set, only its Gram
# tile of GRAM_TILE entries and the block of terms cut from it outgrow that:
# their shape fixes the bits of the potential. Each step of the exact sum takes
# at most _CHUNK_TERMS terms, so its five temporaries stay at or below 64 KiB.
GRAM_TILE = 1 << 15  # entries of a Gram tile of designs._terms
_CHUNK_TERMS = 1 << 13  # terms compensated_sums takes from a block at a time


def compensated_sums(blocks: Iterable[np.ndarray], k: int) -> list[float]:
    """The correctly rounded sum of each row over a stream of (k, n) blocks.

    Each term M * 2^(8g) is split exactly into T, M rounded to a multiple of
    2^-23, and M - T, an integer multiple of 2^-53 of at most 2^-24; each part
    is summed per (row, bucket g) with one np.bincount per chunk of a block,
    its k rows by at most _CHUNK_TERMS // k columns. While at most 2^22
    columns are pending, these sums stay below 2^53 units of 2^-23 and of
    2^-53, so every bucket sum is exact; the buckets are flushed at
    _PENDING_MAX columns. Scaled back by 2^(8g), each bucket sum is an exact
    double (the terms are multiples of 2^-1074), so math.fsum of a row's
    nonzero buckets is its correctly rounded sum, whatever the order of the
    terms.

    Raises NumericRangeError when a term is nan or infinite or a bucket or
    row sum leaves the floating range.
    """
    at_row = np.arange(135, 135 + k * _BUCKETS, _BUCKETS)[:, None]
    pending = np.zeros((2, k * _BUCKETS))  # per part, (row, bucket) flattened
    values = [[] for _ in range(k)]  # flushed bucket sums, scaled back, per row
    columns = 0
    width = max(1, min(_CHUNK_TERMS // k, _PENDING_MAX))  # columns per chunk
    with np.errstate(invalid="ignore", over="ignore"):  # nan and inf are caught below
        for block in blocks:
            for start in range(0, block.shape[1], width):
                part = block[:, start:start + width]
                if columns + part.shape[1] > _PENDING_MAX:
                    _flush(pending, values)
                    pending[:] = 0.0
                    columns = 0
                columns += part.shape[1]
                m, e = np.frexp(part)
                np.ldexp(m, e & 7, out=m)
                e >>= 3
                at = (e + at_row).ravel()
                top = m + _SPLIT
                top -= _SPLIT
                m -= top
                pending[0] += np.bincount(at, top.ravel(), pending.shape[1])
                pending[1] += np.bincount(at, m.ravel(), pending.shape[1])
                del m, e, at, top  # else they outlive the making of the next chunk's
        _flush(pending, values)
    try:
        totals = [math.fsum(row) for row in values]
        if all(math.isfinite(total) for total in totals):
            return totals
    except (OverflowError, ValueError):  # an overflow, or buckets of inf and -inf
        pass
    raise NumericRangeError("sum met a non-finite term or left the floating range")


def _flush(pending: np.ndarray, values: list[list[float]]) -> None:
    """Append each row's nonzero bucket sums, scaled back to exact doubles, to
    its values."""
    k = len(values)
    scaled = np.ldexp(pending.reshape(2, k, _BUCKETS), _SHIFTS).transpose(1, 0, 2)
    kept = scaled != 0.0
    flat = scaled[kept].tolist()
    start = 0
    for row, n in zip(values, kept.sum(axis=(1, 2)).tolist()):
        row += flat[start:start + n]
        start += n


def pow2_scaled(v: np.ndarray) -> np.ndarray:
    """v times the power of two that brings its largest real or imaginary part
    into [0.5, 1) (a zero v is kept): exact while no part leaves the normal
    range, and the norm of the result cannot overflow or underflow."""
    v = np.ascontiguousarray(v, dtype=complex if np.iscomplexobj(v) else float)
    parts = v.view(np.float64)
    return np.ldexp(parts, -np.frexp(np.abs(parts).max(initial=0.0))[1]).view(v.dtype)


def quantized_keys(items: np.ndarray) -> list[bytes]:
    """Dedup key of each item along the first axis: its entries rounded to
    DEDUP_DIGITS decimals."""
    # adding 0.0 maps -0.0 to +0.0 so signed zeros share a key
    return [item.tobytes() for item in np.round(items, DEDUP_DIGITS) + 0.0]


def _intern(rows: np.ndarray, index: dict[bytes, int]) -> tuple[np.ndarray, list[int]]:
    """Each row's position in `index`, a table from dedup key to position, and
    the rows whose key was new, in order; a new key takes the next position."""
    at, new = [], []
    for row, key in enumerate(quantized_keys(rows)):
        n = len(index)
        at.append(index.setdefault(key, n))
        if len(index) > n:
            new.append(row)
    return np.array(at, dtype=np.intp), new


# Some p/q is within 1/q^2 of any real x, so with q up to 10^6 nearly any x
# meets REL_EQ; a rounded rational x scores q^2 |x - p/q| ~ |pq| 2^-53.
# The rational roots of catalog pairs score <= 7e-6, irrational ones >= 4e-3.
# Neither test depends on the scale of x, so |p| is bounded too: without
# it most floats above 1e4 snap (1e5 sqrt 2 to 135189341332/955933).
SNAP_DENOM_MAX = 10 ** 6  # the bound on q and on |p|
SNAP_QUALITY_MAX = 1e-4


def snap_to_rational(x: float) -> Fraction | None:
    """Best rational p/q with q <= SNAP_DENOM_MAX, or None if none is close.

    Uses the continued-fraction convergent and accepts it only when
    |p| <= SNAP_DENOM_MAX, |x - p/q| <= REL_EQ * max(1, |x|) and
    q^2 |x - p/q| <= SNAP_QUALITY_MAX.
    """
    if not math.isfinite(x):
        return None
    cand = Fraction(x).limit_denominator(SNAP_DENOM_MAX)
    err = abs(x - cand)
    if (abs(cand.numerator) <= SNAP_DENOM_MAX and err <= REL_EQ * max(1.0, abs(x))
            and cand.denominator ** 2 * err <= SNAP_QUALITY_MAX):
        return cand
    return None


def _read_json(path, error, what: str):
    """The JSON value in the file at path, read as UTF-8 text. A file that
    cannot be read raises error("cannot read <what>: ..."), and one that is
    not UTF-8, not JSON or nested past the recursion limit raises
    error("<what> is not valid JSON: ...")."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # ValueError covers JSON and UTF-8 errors
        raise error(f"{what} is not valid JSON: {exc}") from exc


def _json_number(e) -> float:
    """A number read from JSON. float() would take true as 1.0 and a string as
    the number it spells, so those raise TypeError like any other non-number."""
    if isinstance(e, bool) or not isinstance(e, (int, float)):
        raise TypeError(f"entry {e!r} is not a number")
    return float(e)


def _json_complex(e) -> complex:
    """A [re, im] pair of numbers read from JSON; TypeError for anything else."""
    if not isinstance(e, list) or len(e) != 2:
        raise TypeError(f"entry {e!r} is not a [re, im] pair")
    return complex(_json_number(e[0]), _json_number(e[1]))
