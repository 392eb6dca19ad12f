"""Tolerance constants, compensated summation, and rational reconstruction."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdesigns import (
    FiniteMatrixGroup,
    GroupSpec,
    NumericRangeError,
    SizeLimitError,
    build_group,
    catalog_entry,
    snap_to_rational,
)
from orbitdesigns import numerics
from orbitdesigns.numerics import compensated_sums
from orbitdesigns.orbits import _canonicalize_rows


def test_tolerance_defaults():
    assert numerics.REL_EQ == 1e-9
    assert numerics.DEDUP_DIGITS == 8


def _row_sum(terms):
    """The correctly rounded sum of one row of terms."""
    return compensated_sums([np.asarray(terms, dtype=float).reshape(1, -1)], 1)[0]


def test_compensated_sum_small_integers():
    assert _row_sum([1.0, 2.0, 3.0]) == 6.0


def test_compensated_sum_empty():
    assert _row_sum([]) == 0.0


def test_compensated_sum_tenth_million_times():
    # reference: 10^6 * (1/10) evaluated exactly
    exact = Fraction(10**6, 10)
    got = _row_sum([0.1] * 10**6)
    assert abs(got - float(exact)) <= 1e-9 * float(exact)


def test_compensated_sum_order_invariance():
    terms = [((-1.0) ** k) / (k + 1) for k in range(10001)]
    forward = _row_sum(terms)
    backward = _row_sum(terms[::-1])
    assert abs(forward - backward) <= 1e-12 * max(1.0, abs(forward))


def test_compensated_sum_overflow_reported():
    with pytest.raises(NumericRangeError):
        _row_sum([1e308, 1e308])


@pytest.mark.parametrize("bad", [[1e308, 1e308], [float("nan")], [float("inf"), 1.0],
                                 [float("-inf"), float("inf")], [2.0, float("nan"), -2.0]])
def test_compensated_sum_rejects_non_finite(bad):
    with pytest.raises(NumericRangeError):
        _row_sum(bad)
    with pytest.raises(NumericRangeError):
        compensated_sums([np.array([[1.0] * len(bad), bad])], 2)


def test_compensated_sum_cancels_across_the_range():
    # a row whose buckets overflow apart but not together still sums
    assert _row_sum([1.5e308, 1.5e308, -1e308, -1e308]) == 1e308
    # three terms of one bucket whose sum needs 60 bits
    assert _row_sum([64.0, 0.5 + 2.0**-53, -64.5]) == 2.0**-53
    assert _row_sum([2.0**-1074] * 3 + [2.0**-1022, -(2.0**-1022)]) == 3 * 2.0**-1074


# x = m * 2^e with |m| < 2^53: e = -1074 gives the subnormals, and every
# magnitude below 2^1000 is reachable
_doubles = st.builds(math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1074, 1000 - 53))


def _split_columns(rows, cuts):
    """The (k, n) array of rows cut into column blocks at the given cuts."""
    bounds = sorted({c % (rows.shape[1] + 1) for c in cuts} | {0, rows.shape[1]})
    return [rows[:, a:b] for a, b in zip(bounds, bounds[1:])]


@given(
    k=st.integers(1, 4),
    terms=st.lists(_doubles, max_size=60),
    cancel=st.lists(st.integers(0, 59), max_size=20),
    crowd=st.tuples(st.integers(-1074, 1000 - 53),
                    st.lists(st.integers(-(2**53) + 1, 2**53 - 1), max_size=40)),
    order=st.randoms(use_true_random=False),
    cuts=st.lists(st.integers(0, 10**6), max_size=5),
)
@settings(max_examples=300, deadline=None)
def test_compensated_sums_match_fsum_bit_for_bit(k, terms, cancel, crowd, order, cuts):
    terms += [-terms[i] for i in cancel if i < len(terms)]  # +-x cancellation pairs
    terms += [math.ldexp(m, crowd[0]) for m in crowd[1]]  # many terms in one bucket
    terms += [0.0] * (-len(terms) % k)
    order.shuffle(terms)
    rows = np.array(terms, dtype=float).reshape(k, -1)
    got = compensated_sums(_split_columns(rows, cuts), k)
    assert [x.hex() for x in got] == [math.fsum(row).hex() for row in rows.tolist()]


@pytest.mark.parametrize("chunk_terms", [numerics._CHUNK_TERMS, 2, 6])
def test_compensated_sums_flush_pending_columns(monkeypatch, chunk_terms):
    # flushing every 3 columns splits each row's buckets into many partial sums;
    # 2 and 6 chunk terms over 3 rows take 1 and 2 columns at a time, so chunk
    # cuts fall inside each block, between the flushes
    monkeypatch.setattr(numerics, "_CHUNK_TERMS", chunk_terms)
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((3, 200)) * np.exp2(rng.integers(-1074, 900, (3, 200)))
    rows[:, 100:] = -rows[:, :100] * (1 + 2.0**-52)
    expected = [math.fsum(row) for row in rows.tolist()]
    flushes = []
    flush = numerics._flush
    monkeypatch.setattr(numerics, "_PENDING_MAX", 3)
    monkeypatch.setattr(numerics, "_flush", lambda *a: flushes.append(1) or flush(*a))
    assert compensated_sums(np.array_split(rows, 7, axis=1), 3) == expected
    assert len(flushes) >= 200 // 3


def test_snap_examples():
    assert snap_to_rational(0.2) == Fraction(1, 5)
    assert snap_to_rational(0.7142857142857) == Fraction(5, 7)
    assert snap_to_rational(0.35714285714) == Fraction(5, 14)


def test_snap_rejects_far_values():
    assert snap_to_rational(float("nan")) is None
    # each has a convergent p/q within rel_eq, but q^2 |x - p/q| is far above
    # SNAP_QUALITY_MAX (pi 1.13, sqrt(2) 0.35, phi 0.45)
    for x in (math.pi, math.sqrt(2), (1 + math.sqrt(5)) / 2):
        assert snap_to_rational(x) is None


def test_snap_respects_denominator_cap():
    # 999983 is the largest prime below SNAP_DENOM_MAX = 10^6, 1000003 the least above
    assert numerics.SNAP_DENOM_MAX == 10**6
    assert snap_to_rational(1 / 999983) == Fraction(1, 999983)
    assert snap_to_rational(1 / 1000003) is None


def test_snap_bounds_the_numerator():
    # |p| <= SNAP_DENOM_MAX too: without it 1e5 sqrt(2) snapped to
    # 135189341332/955933, and so did 82% of uniform draws in [0, 1e5)
    assert snap_to_rational(1e5 * math.sqrt(2)) is None
    assert snap_to_rational(1e6) == Fraction(10**6)
    assert snap_to_rational(1e6 + 1) is None
    draws = np.random.default_rng(7).uniform(0.0, 1e5, 4000)
    assert [x for x in draws.tolist() if snap_to_rational(x) is not None] == []


@given(
    p=st.integers(min_value=-(10**4), max_value=10**4),
    q=st.integers(min_value=1, max_value=10**4),
)
@settings(max_examples=300)
def test_snap_recovers_small_rationals(p, q):
    assert snap_to_rational(p / q) == Fraction(p, q)


@given(entries=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=40),
       cut=st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_intern_matches_a_dict_reference(entries, cut):
    # two calls share one index; quarters are exact, so each distinct row has
    # its own key, and a position is the order of a row's first appearance
    rows = np.array(entries, dtype=float).reshape(-1, 2) / 4
    seen: dict = {}
    positions = np.array([seen.setdefault(row, len(seen)) for row in map(tuple, rows.tolist())],
                         dtype=np.intp)
    index: dict = {}
    n = 0
    for part in (slice(0, cut), slice(cut, None)):
        at, new = numerics._intern(rows[part], index)
        assert at.dtype == np.intp and at.tolist() == positions[part].tolist()
        keys, first = np.unique(positions[part], return_index=True)
        assert new == first[keys >= n].tolist()
        n = len(index)
    assert n == len(seen)


def test_walk_returns_rows_in_discovery_order(max_order):
    # x -> 2x and x -> x + 3 on Z/11, against a plain breadth-first search
    # that takes each level generator by generator; the group's two 1x1
    # generators only count the maps, which the step applies itself
    maps = (lambda x: 2 * x % 11, lambda x: (x + 3) % 11)
    order, frontier = [1], [1]
    while frontier:
        level = [f(x) for f in maps for x in frontier]
        frontier = [y for n, y in enumerate(level) if y not in order and y not in level[:n]]
        order += frontier
    max_order(11)
    g = FiniteMatrixGroup(GroupSpec("explicit", ("toy",), "toy"), (np.eye(1),) * 2)
    rows = g.walk(np.array([[1.0]]),
                  lambda block, batch: np.concatenate([f(block) for f in maps[batch]]),
                  "too many", "split", "residues")
    assert rows[:, 0].tolist() == order


@pytest.mark.parametrize("label", ["binT", "H3", "heis(3)"])
def test_walk_maps_are_the_generator_permutations(label):
    g = build_group(label)
    gens = g.generators
    rows = g.walk(g.elements[:1],
                  lambda block, batch: np.concatenate([block @ h for h in gens[batch]]),
                  "too many", "split", "elements")
    assert np.array_equal(rows, g.elements)
    position = {key: n for n, key in enumerate(numerics.quantized_keys(rows))}
    for h in gens:
        perm = [position[key] for key in numerics.quantized_keys(rows @ h)]
        assert sorted(perm) == list(range(g.order))
        assert np.abs(rows @ h - rows[perm]).max() < 1e-12


def test_walk_stops_past_limit_without_maps(max_order):
    entry = catalog_entry("H4")  # seed @4 has a 600-line orbit
    max_order(100)
    g = build_group("H4")
    gens_t = np.stack(g.generators).transpose(0, 2, 1)
    with pytest.raises(SizeLimitError, match="^too many$"):
        g.walk(_canonicalize_rows(entry.seeds[3][None]),
               lambda block, batch: _canonicalize_rows((block @ gens_t[batch]).reshape(-1, 4)),
               "too many", "split", "orbit lines")
