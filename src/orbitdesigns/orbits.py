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
from math import sqrt

import numpy as np

from .errors import ConsistencyError, InputError, MismatchError, SizeLimitError
from .groups import FiniteMatrixGroup, group_order
from .numerics import DEFAULT_TOL, Rational, Tolerance, _intern, _walk, compensated_sum

VALIDATE_BLOCK_TERMS = 1 << 15  # Gram entries per block of LineSet.validate's coincidence test


@dataclass(frozen=True)
class LineSet:
    """A weighted set of projective lines.

    lines          (L, d) canonical unit representatives
    weights        per-line weights summing to 1; negative entries allowed
                   for signed designs
    exact_weights  optional Fractions matching weights exactly; orbits and
                   unions always carry them
    seed_literal   provenance: the seed vector literal, if any
    group          the group when the set is a union of its orbits, else None
    orbit_starts   with group: the first row of each orbit block, the rows of
                   one block being one orbit with one weight; else None
    """

    field: str
    lines: np.ndarray
    weights: np.ndarray
    exact_weights: tuple | None = None
    seed_literal: str | None = None
    group: FiniteMatrixGroup | None = None
    orbit_starts: tuple | None = None

    @property
    def dim(self) -> int:
        return self.lines.shape[1]

    @property
    def n_lines(self) -> int:
        return self.lines.shape[0]

    @property
    def signed(self) -> bool:
        return bool((self.weights < 0).any())

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> None:
        norms = np.linalg.norm(self.lines, axis=1)
        if np.abs(norms - 1.0).max() > tol.rel_eq:
            raise ConsistencyError("line representatives must have unit norm")
        # the strict upper triangle of the Gram matrix, a block of rows at a time
        n = self.n_lines
        step = max(1, VALIDATE_BLOCK_TERMS // n)
        for i in range(0, n - 1, step):
            block = np.abs(self.lines[i:i + step] @ self.lines[i + 1:].conj().T)
            if 1.0 - np.triu(block).max() <= tol.rel_eq:
                raise ConsistencyError("two lines coincide projectively")
        if abs(compensated_sum(self.weights) - 1.0) > tol.rel_eq:
            raise ConsistencyError("weights must sum to 1")


def canonical_line(v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unit representative of the line through v, with a positive real pivot.

    Idempotent: applying it to its own output changes nothing.
    """
    v = np.asarray(v)
    if np.linalg.norm(v) == 0.0:
        raise InputError("zero vector spans no line")
    return _canonicalize_rows(v[None], tol)[0]


def _canonicalize_rows(rows: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Vectorized canonical_line over the rows of an (n, d) array."""
    norms = np.linalg.norm(rows, axis=1)
    rows = rows / norms[:, None]
    mags = np.abs(rows)
    pivots = (mags > tol.rel_eq).argmax(axis=1)
    p = rows[np.arange(len(rows)), pivots]
    if np.iscomplexobj(rows):
        return rows / (p / np.abs(p))[:, None]
    return rows * np.sign(p)[:, None]


def orbit_lines(
    group: FiniteMatrixGroup,
    seed: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    seed_literal: str | None = None,
) -> LineSet:
    """The projective orbit of a seed under the group, uniformly weighted.

    Walks canonical lines breadth-first under the group's generators, so the
    group's elements are never enumerated. Every generator must permute the
    lines found, and their number must divide the group order when that has a
    closed form; a dedup key that splits one line into several or merges two
    is an error.
    """
    x = group.embed_seed(np.asarray(seed))
    nx = np.linalg.norm(x)
    if nx == 0.0:
        raise InputError("zero seed vector")
    digits = tol.dedup_digits
    order = group_order(group.spec)
    limit = order if order is not None else group.max_order
    gens_t = np.stack(group.generators).transpose(0, 2, 1)
    reps, maps = _walk(_canonicalize_rows((x / nx)[None], tol),
                       lambda block: _canonicalize_rows((block @ gens_t).reshape(-1, x.size), tol),
                       limit, digits)
    if maps is None:
        split = f"copies of one line split into distinct dedup keys at {digits} digits"
        if order is None:
            raise SizeLimitError(
                f"orbit of {group.spec} passes max_order={limit} lines: the "
                f"group is larger than that, or {split}"
            )
        raise ConsistencyError(f"orbit of {group.spec} passes {limit} lines: {split}")
    n = len(reps)
    # maps holds positions in 0..n-1, so each row is a permutation iff sorted it is 0..n-1
    if (np.sort(maps, axis=1) != np.arange(n)).any():
        raise ConsistencyError(
            f"the generators of {group.spec} do not permute the {n} orbit lines found: "
            f"dedup keys at {digits} digits split or merge lines"
        )
    if order is not None and order % n:
        raise ConsistencyError(
            f"orbit of {group.spec} has {n} lines, which does not divide the group "
            f"order {order}: dedup keys at {digits} digits split or merge lines"
        )
    w = Fraction(1, n)
    out = LineSet(
        field=group.field,
        lines=reps,
        weights=np.full(n, 1.0 / n),
        exact_weights=(w,) * n,
        seed_literal=seed_literal if seed_literal is not None else format_vector(np.asarray(seed)),
        group=group,
        orbit_starts=(0,),
    )
    out.validate(tol)
    return out


def union_lines(
    X: LineSet,
    Y: LineSet,
    beta: tuple[Rational, Rational],
    tol: Tolerance = DEFAULT_TOL,
) -> LineSet:
    """Weighted union: X's weights scaled by beta_X, Y's by beta_Y = 1 - beta_X.

    Weights are summed exactly: an operand without exact_weights contributes
    the Fraction of each float weight, so the union always carries
    exact_weights. Lines shared by X and Y are merged with summed weight;
    lines whose merged weight is zero are dropped. When X and Y are single
    orbits of one group, the result is an orbit union of that group.
    """
    if X.dim != Y.dim or X.field != Y.field:
        raise MismatchError("union operands must share dimension and field")
    bx, by = Fraction(beta[0]), Fraction(beta[1])
    if bx + by != 1:
        raise InputError("union weighting must satisfy beta_X + beta_Y = 1")
    index: dict[bytes, int] = {}
    # per operand, the union row of each of its lines
    where = [_intern(ls.lines, index, tol.dedup_digits).tolist() for ls in (X, Y)]
    rows = where[0] + where[1]
    _, first = np.unique(rows, return_index=True)
    lines = np.concatenate([X.lines, Y.lines])[first]
    # Fraction * float is a float, so float weights become Fractions first
    scaled = [b * w for b, ls in ((bx, X), (by, Y))
              for w in ls.exact_weights or map(Fraction, ls.weights.tolist())]
    weights: list = [None] * len(index)
    for i, w in zip(rows, scaled):
        weights[i] = w if weights[i] is None else weights[i] + w
    keep = [i for i, w in enumerate(weights) if w != 0]
    if not keep:
        raise ConsistencyError("union has no lines with nonzero weight")
    kept_w = [weights[i] for i in keep]
    single = X.group is Y.group and X.orbit_starts == Y.orbit_starts == (0,)
    group = X.group if single else None
    out = LineSet(
        field=X.field,
        lines=lines[keep],
        weights=np.array([float(w) for w in kept_w]),
        exact_weights=tuple(kept_w),
        group=group,
        orbit_starts=_union_blocks(X, Y, where, keep, tol) if group is not None else None,
    )
    out.validate(tol)
    return out


def _union_blocks(X: LineSet, Y: LineSet, where: list[list[int]], keep: list[int],
                  tol: Tolerance) -> tuple:
    """orbit_starts of the union of two orbits of one group.

    Two orbits of a group are equal or disjoint, so Y's union rows are X's or
    none of them, and each operand's lines take distinct rows; anything else
    means the dedup keys joined distinct lines. An orbit dropped for zero
    weight goes whole, since weights are constant on an orbit.
    """
    rx, ry = set(where[0]), set(where[1])
    if len(rx) != X.n_lines or len(ry) != Y.n_lines or (rx & ry and rx != ry):
        raise ConsistencyError(
            f"orbits of {X.group.spec} merge only in part in a union: dedup "
            f"keys at {tol.dedup_digits} digits joined distinct lines"
        )
    position = {row: n for n, row in enumerate(keep)}
    return tuple(sorted(position[s] for s in {min(rx), min(ry)} if s in position))


_COMPLEX_ENTRY = re.compile(
    r"^(?P<re>[+-]?[0-9][0-9./]*(?=[+-]))?(?P<im>[+-]?[0-9./]*)[ij]$"
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

    Entries are real (`2`, `-0.5`, `1/3`), complex (`1+2i`, `-i`, `0.5-1/3i`),
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
