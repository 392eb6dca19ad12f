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
from math import fsum, sqrt

import numpy as np

from .errors import ConsistencyError, InputError, MismatchError, SizeLimitError
from .groups import FiniteMatrixGroup, group_order
from .numerics import DEFAULT_TOL, Rational, Tolerance, quantized_keys


@dataclass(frozen=True)
class LineSet:
    """A weighted set of projective lines.

    lines          (L, d) canonical unit representatives
    weights        per-line weights summing to 1; negative entries allowed
                   for signed designs
    exact_weights  optional Fractions matching weights exactly
    group_label    provenance: spec string of the generating group, if any
    seed_literal   provenance: the seed vector literal, if any
    group          the group when the set is a union of its orbits, else None
    orbit_starts   with group: the first row of each orbit block, the rows of
                   one block being one orbit with one weight; else None
    """

    field: str
    lines: np.ndarray
    weights: np.ndarray
    exact_weights: tuple | None = None
    group_label: str | None = None
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
        gram = np.abs(self.lines @ self.lines.conj().T)
        np.fill_diagonal(gram, 0.0)
        if gram.size and 1.0 - gram.max() <= tol.rel_eq:
            raise ConsistencyError("two lines coincide projectively")
        if abs(fsum(self.weights.tolist()) - 1.0) > tol.rel_eq:
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
    gens = np.stack(group.generators)
    frontier = _canonicalize_rows((x / nx)[None], tol)
    reps = [frontier[0]]
    index = {quantized_keys(frontier, digits)[0]: 0}
    # per frontier block, maps[k][j]: index of the line generator k sends line j to
    maps: list[np.ndarray] = []
    while len(frontier):
        images = frontier @ gens.transpose(0, 2, 1)  # (generators, frontier, d)
        canon = _canonicalize_rows(images.reshape(-1, x.size), tol)
        first_new = len(reps)
        targets = []
        for row, key in zip(canon, quantized_keys(canon, digits)):
            i = index.get(key)
            if i is None:
                if len(reps) == limit:
                    split = f"copies of one line split into distinct dedup keys at {digits} digits"
                    if order is None:
                        raise SizeLimitError(
                            f"orbit of {group.spec} passes max_order={limit} lines: the "
                            f"group is larger than that, or {split}"
                        )
                    raise ConsistencyError(f"orbit of {group.spec} passes {limit} lines: {split}")
                i = index[key] = len(reps)
                reps.append(row)
            targets.append(i)
        maps.append(np.reshape(targets, (len(gens), -1)))
        frontier = np.array(reps[first_new:])
    n = len(reps)
    if any(np.unique(row).size != n for row in np.concatenate(maps, axis=1)):
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
        lines=np.stack(reps),
        weights=np.full(n, 1.0 / n),
        exact_weights=(w,) * n,
        group_label=group.spec.label,
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

    Lines shared by X and Y are merged with summed weight; lines whose merged
    weight is exactly zero are dropped. When X and Y are orbit unions of one
    group, so is the result.
    """
    if X.dim != Y.dim or X.field != Y.field:
        raise MismatchError("union operands must share dimension and field")
    bx, by = Fraction(beta[0]), Fraction(beta[1])
    if bx + by != 1:
        raise InputError("union weighting must satisfy beta_X + beta_Y = 1")
    exact = X.exact_weights is not None and Y.exact_weights is not None
    merged: dict[bytes, int] = {}
    lines: list[np.ndarray] = []
    weights: list = []
    where: list[list[int]] = []  # per operand, the union row of each of its lines
    for ls, b in ((X, bx), (Y, by)):
        ws = ls.exact_weights if exact else ls.weights
        rows = []
        for row, w, key in zip(ls.lines, ws, quantized_keys(ls.lines, tol.dedup_digits)):
            scaled = b * w if exact else float(b) * w
            i = merged.get(key)
            if i is None:
                i = merged[key] = len(lines)
                lines.append(row)
                weights.append(scaled)
            else:
                weights[i] += scaled
            rows.append(i)
        where.append(rows)
    if exact:
        keep = [i for i, w in enumerate(weights) if w != 0]
    else:
        keep = [i for i, w in enumerate(weights) if abs(w) > 1e-15]
    if not keep:
        raise ConsistencyError("union has no lines with nonzero weight")
    kept_lines = np.stack([lines[i] for i in keep])
    kept_w = [weights[i] for i in keep]
    group = X.group if X.group is not None and X.group is Y.group else None
    out = LineSet(
        field=X.field,
        lines=kept_lines,
        weights=np.array([float(w) for w in kept_w]),
        exact_weights=tuple(kept_w) if exact else None,
        group_label=X.group_label if X.group_label == Y.group_label else None,
        group=group,
        orbit_starts=_union_blocks(X, Y, where, keep, tol) if group is not None else None,
    )
    out.validate(tol)
    return out


def _union_blocks(X: LineSet, Y: LineSet, where: list[list[int]], keep: list[int],
                  tol: Tolerance) -> tuple:
    """orbit_starts of the union of two orbit unions of one group.

    Two orbits of a group are equal or disjoint, so each block of X and Y
    either adds lines of its own or lands whole on one earlier block; anything
    else means the dedup keys joined distinct lines. Blocks dropped for zero
    weight go whole, since weights are constant on a block.
    """
    owner: dict[int, int] = {}  # union row -> first union row of its block
    sizes: dict[int, int] = {}  # first union row of a block -> its size
    for ls, rows in zip((X, Y), where):
        bounds = ls.orbit_starts + (ls.n_lines,)
        for lo, hi in zip(bounds, bounds[1:]):
            block = rows[lo:hi]
            hit = {owner.get(i) for i in block}
            whole = len(set(block)) == hi - lo and len(hit) == 1
            if whole and hit == {None}:
                sizes[block[0]] = hi - lo
                owner.update((i, block[0]) for i in block)
            elif not whole or sizes[hit.pop()] != hi - lo:
                raise ConsistencyError(
                    f"orbits of {X.group.spec} merge only in part in a union: dedup "
                    f"keys at {tol.dedup_digits} digits joined distinct lines"
                )
    position = {row: n for n, row in enumerate(keep)}
    return tuple(sorted(position[s] for s in sizes if s in position))


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
