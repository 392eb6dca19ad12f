"""Projective orbits of seed vectors: canonical line representatives,
deduplicated orbit line sets with uniform weights, and weighted unions.

A line is stored as one unit-norm representative whose first coordinate of
non-negligible magnitude is real and positive, so projectively equal vectors
compare equal entrywise.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import fsum, sqrt
from typing import TYPE_CHECKING

import numpy as np

from . import numerics  # DEDUP_DIGITS and MAX_ORDER are read at call time
from .errors import ConsistencyError, InputError, MismatchError
from .numerics import REL_EQ, _intern

if TYPE_CHECKING:  # not at run time: verify loads orbits, not groups
    from .groups import FiniteMatrixGroup


@dataclass(frozen=True, eq=False)  # equal only to itself: == on arrays has no truth value
class LineSet:
    """A weighted set of projective lines.

    lines          (L, d) canonical unit representatives, float64 for a real
                   set (field "R") or complex128 (field "C")
    exact_weights  one Fraction per line, summing to 1; negative entries
                   allowed for signed designs
    seed_literal   provenance: the seed vector literal, if any
    group          the group when the set is one orbit of it, else None; only
                   orbit_lines sets it
    """

    lines: np.ndarray
    exact_weights: tuple
    seed_literal: str | None = None
    group: FiniteMatrixGroup | None = None

    @cached_property
    def weights(self) -> np.ndarray:
        """float(w) of each exact weight: the weights the potentials read.
        Raises OverflowError for a weight past the floating range."""
        return np.array([float(w) for w in self.exact_weights])

    @property
    def dim(self) -> int:
        return self.lines.shape[1]

    @property
    def field(self) -> str:
        """"C" when the lines are complex, else "R"."""
        return "C" if np.iscomplexobj(self.lines) else "R"

    @property
    def n_lines(self) -> int:
        return self.lines.shape[0]

    @property
    def signed(self) -> bool:
        return bool((self.weights < 0).any())

    def validate(self) -> None:
        """Check that every line has unit norm, that no two lines coincide
        projectively and that the weights sum to 1.

        Lines a and b coincide when a is within the dedup grid 10^-DEDUP_DIGITS
        of phi*b, phi = <b,a>/|<b,a>|; 1 - |<b,a>| <= REL_EQ, quadratic in
        their angle, only picks the candidates. Each line x has the phase-free
        number q(x) = |<x,v>|^2 for a fixed unit probe v, and coinciding lines
        have q within 2(1 + REL_EQ) grids of each other, so they fall in the
        same or adjacent cells of width 3 grids; only pairs in such cells are
        compared. The probe sets how many pairs that is, never a verdict.
        """
        norms = np.linalg.norm(self.lines, axis=1)
        if not np.abs(norms - 1.0).max() <= REL_EQ:  # fails on nan too
            raise ConsistencyError("line representatives must have unit norm")
        grid = 10.0 ** -numerics.DEDUP_DIGITS
        k = np.arange(1, self.dim + 1)
        probe = np.sqrt(k) * (np.exp(1j * k) if self.field == "C" else np.cos(k))
        q = np.abs(self.lines @ (probe / np.linalg.norm(probe))) ** 2
        earlier: dict[int, list[int]] = {}  # cell -> the rows met in it so far
        for i, c in enumerate((q // (3.0 * grid)).astype(np.int64).tolist()):
            for j in (*earlier.get(c - 1, ()), *earlier.get(c, ()), *earlier.get(c + 1, ())):
                a, b = self.lines[j], self.lines[i]
                dot = np.vdot(b, a)
                if 1.0 - abs(dot) <= REL_EQ and np.linalg.norm(a - dot / abs(dot) * b) <= grid:
                    raise ConsistencyError("two lines coincide projectively")
            earlier.setdefault(c, []).append(i)
        if not abs(fsum(self.weights.tolist()) - 1.0) <= REL_EQ:  # fails on nan too
            raise ConsistencyError("weights must sum to 1")


def _canonicalize_rows(rows: np.ndarray) -> np.ndarray:
    """The canonical representative of the line through each nonzero row of
    an (n, d) array: unit norm, with its first entry of magnitude above
    REL_EQ real and positive.

    Idempotent: applying it to its own output changes nothing.
    """
    norms = np.linalg.norm(rows, axis=1)
    rows = rows / norms[:, None]
    mags = np.abs(rows)
    pivots = (mags > REL_EQ).argmax(axis=1)
    p = rows[np.arange(len(rows)), pivots]
    if np.iscomplexobj(rows):
        return rows / (p / np.abs(p))[:, None]
    return rows * np.sign(p)[:, None]


def orbit_lines(group: FiniteMatrixGroup, seed: np.ndarray,
                seed_literal: str | None = None) -> LineSet:
    """The projective orbit of a seed under the group, uniformly weighted.

    Walks canonical lines breadth-first by group.walk, whose step maps a
    block of lines by a slice of the generators, so the group's elements are
    never enumerated; the walk checks that every generator permutes the lines
    found. Their number must divide
    the group order when that has a closed form; a dedup key that splits one
    line into several or merges two is an error.
    """
    x = group.embed_seed(np.asarray(seed))  # scaled: its norm cannot overflow
    nx = np.linalg.norm(x)
    if nx == 0.0:
        raise InputError("zero seed vector")
    digits = numerics.DEDUP_DIGITS
    order = group.order
    gens_t = group.generators.transpose(0, 2, 1)
    split = f"copies of one line split into distinct dedup keys at {digits} digits"
    reps = group.walk(
        _canonicalize_rows((x / nx)[None]),
        lambda block, batch: _canonicalize_rows((block @ gens_t[batch]).reshape(-1, x.size)),
        f"orbit of {group.spec} passes max_order={numerics.MAX_ORDER} lines: "
        f"the group is larger than that, or {split}",
        f"orbit of {group.spec} passes {order} lines: {split}", "orbit lines")
    n = len(reps)
    if order is not None and order % n:
        raise ConsistencyError(
            f"orbit of {group.spec} has {n} lines, which does not divide the group "
            f"order {order}: dedup keys at {digits} digits split or merge lines"
        )
    out = LineSet(
        lines=reps,
        exact_weights=(Fraction(1, n),) * n,
        seed_literal=seed_literal if seed_literal is not None else format_vector(np.asarray(seed)),
        group=group,
    )
    out.validate()
    return out


def union_lines(X: LineSet, Y: LineSet, beta: tuple[Fraction, Fraction]) -> LineSet:
    """Weighted union: X's weights scaled by beta_X, Y's by beta_Y = 1 - beta_X.

    Weights are summed exactly, as Fractions. Lines shared by X and Y are
    merged with summed weight; lines whose merged weight is zero are dropped.
    The result has no group.
    Two orbits of one group are equal or disjoint: a partial merge of them, or
    of one orbit's own lines, means the dedup keys joined distinct lines.
    """
    if X.dim != Y.dim or X.field != Y.field:
        raise MismatchError("union operands must share dimension and field")
    bx, by = Fraction(beta[0]), Fraction(beta[1])
    if bx + by != 1:
        raise InputError("union weighting must satisfy beta_X + beta_Y = 1")
    index: dict[bytes, int] = {}
    # per operand, the union row of each of its lines, and its lines that were new
    (at_x, new_x), (at_y, new_y) = (_intern(ls.lines, index) for ls in (X, Y))
    rx, ry = set(at_x.tolist()), set(at_y.tolist())
    if X.group is not None and Y.group is X.group and (
            len(rx) != X.n_lines or len(ry) != Y.n_lines or (rx & ry and rx != ry)):
        raise ConsistencyError(
            f"orbits of {X.group.spec} merge only in part in a union: dedup "
            f"keys at {numerics.DEDUP_DIGITS} digits joined distinct lines"
        )
    lines = np.concatenate([X.lines[new_x], Y.lines[new_y]])
    weights = [Fraction(0)] * len(index)
    for b, ls, at in ((bx, X, at_x), (by, Y, at_y)):
        for i, w in zip(at.tolist(), ls.exact_weights):
            weights[i] += b * w
    keep = [i for i, w in enumerate(weights) if w != 0]
    if not keep:
        raise ConsistencyError("union has no lines with nonzero weight")
    out = LineSet(lines=lines[keep], exact_weights=tuple(weights[i] for i in keep))
    out.validate()
    return out


_EXPONENT = r"(?:[eE][+-]?[0-9]+)?"
_COMPLEX_ENTRY = re.compile(
    rf"^(?P<re>[+-]?[0-9][0-9./]*{_EXPONENT}(?=[+-]))?(?P<im>[+-]?(?:[0-9./]+{_EXPONENT})?)[ij]$"
)
_S5_ENTRY = re.compile(
    r"^(?P<p>[+-]?[0-9][0-9./]*(?=[+-]))?(?P<q>[+-]?[0-9./]*)\*?s5$"
)


def _scalar(tok: str) -> float:
    try:
        return float(Fraction(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad numeric literal {tok!r}") from exc
    except OverflowError as exc:
        raise InputError(f"numeric literal {tok!r} is out of the floating range") from exc


def _coefficient(tok: str) -> float:
    if tok in ("", "+"):
        return 1.0
    if tok == "-":
        return -1.0
    return _scalar(tok)


def parse_vector(text: str) -> np.ndarray:
    """Parse a comma-separated vector literal.

    Entries are real (`2`, `-0.5`, `1/3`, `1e-05`), complex (`1+2i`, `-i`,
    `0.5-1/3i`, `1e-05+2e+20i`),
    or, behind a `sqrt5:` prefix, elements of Q(sqrt 5) written `p+q*s5`.
    """
    text = text.strip()
    golden = text.startswith("sqrt5:")
    if golden:
        text = text[len("sqrt5:"):]
    toks = [t.strip() for t in text.split(",")]
    if not toks or any(t == "" for t in toks):
        raise InputError("empty vector entry")
    values: list[complex] = []
    for tok in toks:
        tok = tok.replace(" ", "")
        if golden and "s5" in tok:
            m = _S5_ENTRY.match(tok)
            if not m:
                raise InputError(f"bad sqrt5 entry {tok!r}")
            p = _scalar(m.group("p")) if m.group("p") else 0.0
            values.append(p + _coefficient(m.group("q")) * sqrt(5.0))
        elif tok.endswith(("i", "j")) and not golden:
            m = _COMPLEX_ENTRY.match(tok)
            if not m:
                raise InputError(f"bad complex entry {tok!r}")
            re_ = _scalar(m.group("re")) if m.group("re") else 0.0
            values.append(complex(re_, _coefficient(m.group("im"))))
        else:
            values.append(complex(_scalar(tok), 0.0))
    arr = np.array(values)
    if np.abs(arr.imag).max() == 0.0:
        return arr.real.copy()
    return arr


def format_vector(v: np.ndarray) -> str:
    """Vector literal round-trippable through parse_vector."""
    v = np.asarray(v)
    if np.iscomplexobj(v):
        parts = []
        for z in v:
            im = f"{z.imag:+.17g}i" if z.imag else ""
            parts.append(f"{z.real:.17g}{im}")
        return ",".join(parts)
    return ",".join(f"{x:.17g}" for x in v)
