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

import numpy as np

from . import numerics  # DEDUP_DIGITS is read at call time, as quantized_keys reads it
from .errors import ConsistencyError, InputError, MismatchError
from .numerics import _CHUNK_TERMS, REL_EQ, _intern


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
        norms = np.linalg.norm(self.lines, axis=1)
        if np.abs(norms - 1.0).max() > REL_EQ:
            raise ConsistencyError("line representatives must have unit norm")
        # 1 - |<a,b>| is quadratic in the angle of lines a and b, so it only
        # picks candidates: a pair coincides when a is within the dedup grid
        # of b times the phase <b,a>/|<b,a>|. The strict upper triangle of the
        # Gram matrix is read a tile of rows at a time; its part on or below
        # the diagonal is zeroed in place. A tile holds at most _CHUNK_TERMS
        # real or half as many complex entries (or one row, if that is longer),
        # so each working array stays at or below 64 KiB, under glibc's mmap
        # threshold; no output bit depends on this cut.
        n = self.n_lines
        step = max(1, _CHUNK_TERMS // (2 if self.field == "C" else 1) // n)
        others = self.lines.conj().T  # a view when the lines are real
        for i in range(0, n - 1, step):
            gram = self.lines[i:i + step] @ others[:, i + 1:]
            near = np.abs(gram)
            near[np.tri(*near.shape, -1, dtype=bool)] = 0.0
            if not 1.0 - near.max() > REL_EQ:  # a candidate, which is rare, or a nan
                for r, c in np.argwhere(1.0 - near <= REL_EQ):
                    phase = gram[r, c] / abs(gram[r, c])
                    gap = np.linalg.norm(self.lines[i + r] - phase * self.lines[i + 1 + c])
                    if gap <= 10.0 ** -numerics.DEDUP_DIGITS:
                        raise ConsistencyError("two lines coincide projectively")
            del gram, near  # else they outlive the making of the next tile
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
    from .groups import group_order  # not at module level: verify loads orbits, not groups
    x = group.embed_seed(np.asarray(seed))  # scaled: its norm cannot overflow
    nx = np.linalg.norm(x)
    if nx == 0.0:
        raise InputError("zero seed vector")
    digits = numerics.DEDUP_DIGITS
    order = group_order(group.spec)
    gens_t = np.stack(group.generators).transpose(0, 2, 1)
    split = f"copies of one line split into distinct dedup keys at {digits} digits"
    reps = group.walk(
        _canonicalize_rows((x / nx)[None]),
        lambda block, batch: _canonicalize_rows((block @ gens_t[batch]).reshape(-1, x.size)),
        f"orbit of {group.spec} passes max_order={group.max_order} lines: "
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
