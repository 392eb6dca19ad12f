"""Finite unitary matrix groups: family generators, closure, catalog.

A group is its generator matrices, whose dtype is its field. Each family is
one row of the table _FAMILIES, keyed by the head of its spec, that holds its
arity, its parameter check, its closed-form order and its generators. The
families are the imprimitive reflection groups G(m,p,n), real
dihedral/rotation groups on the plane, binary dihedral/tetrahedral/
octahedral/icosahedral subgroups of SU(2), the icosahedral reflection groups
H3/H4 and discrete Heisenberg groups; G(m,p,n), H3 and H4 are generated by
_reflection in their roots. A(d), B(d) and D(d) are aliases that check their
own parameter and name G(1,1,d+1), G(2,1,d) and G(2,2,d); G(1,1,n) is
realized on the sum-zero hyperplane. Explicit generator files
(explicit:<path>) have a loader that only parses them, and no closed-form
order. Every group is built only from square generators of one size, unitary
within REL_EQ: FiniteMatrixGroup refuses any other. catalog() returns the
built-in groups with their seed vectors as one tuple, built once per process.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from . import numerics  # DEDUP_DIGITS and MAX_ORDER are read at call time
from .errors import ConsistencyError, InputError, SizeLimitError
from .numerics import REL_EQ, _intern, _json_complex, _json_number, _read_json, pow2_scaled

PHI = (1.0 + math.sqrt(5.0)) / 2.0

# Simple roots with the Coxeter-diagram Gram matrix (edge 5 between the first
# pair, edge 3 between consecutive later pairs); any unit realization works,
# this one has golden-ratio coordinates.
H3_SIMPLE_ROOTS = np.array([
    [0.0, 0.0, 1.0],
    [-0.5 / PHI, -0.5, -0.5 * PHI],
    [0.0, 1.0, 0.0],
])
H4_SIMPLE_ROOTS = np.array([
    [0.0, 0.0, 1.0, 0.0],
    [-0.5 / PHI, -0.5, -0.5 * PHI, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.5 * PHI, -0.5, 0.0, 0.5 / PHI],
])


@dataclass(frozen=True)
class GroupSpec:
    """Symbolic group identifier: family head (G for the aliases A, B and D),
    numeric parameters, display label."""

    kind: str
    params: tuple = ()
    label: str = ""

    def __str__(self) -> str:
        return self.label


_STEP_BYTES = 1 << 24  # images a walk forms at once, unless one generator's take more


@dataclass(frozen=True, eq=False)  # equal only to itself: == on arrays has no truth value
class FiniteMatrixGroup:
    """A finite unitary matrix group, given by its generators.

    generators  (k, d, d) array of k unitary matrices, float64 for a real
                group (field "R") or complex128 (field "C")

    A group is made only from a sequence of at least one generator, square
    of one size and each unitary within REL_EQ, so every product of them
    stays finite; else InputError. It holds them as one array of one dtype.
    `elements` is enumerated on first use only, and it and every orbit walk
    over the group stop past numerics.MAX_ORDER rows.
    """

    spec: GroupSpec
    generators: np.ndarray

    def __post_init__(self) -> None:
        shapes = {np.shape(g) for g in self.generators}
        if not shapes:
            raise InputError("no generators")
        if any(len(s) != 2 or s[0] != s[1] for s in shapes):
            raise InputError("generators must be square matrices")
        if len(shapes) > 1:
            raise InputError("generators must share one dimension")
        gens = np.stack(self.generators)
        object.__setattr__(self, "generators",
                           gens.astype(np.result_type(gens, float), copy=False))
        for i, dev in enumerate(self.unitarity_deviations, start=1):
            if not dev <= REL_EQ:  # inf and nan fail too
                raise InputError(f"generators of {self.spec} must be unitary: generator {i} "
                                 f"deviates from unitary by {dev:.3e}")

    @cached_property
    def unitarity_deviations(self) -> tuple:
        """The max-norm of g*g - I for each generator g, in order: inf when an
        entry of g*g overflows, nan when one is nan."""
        eye = np.eye(self.dim)
        with np.errstate(over="ignore", invalid="ignore"):  # __post_init__ refuses inf and nan
            return tuple(float(np.abs(g.conj().T @ g - eye).max()) for g in self.generators)

    @cached_property
    def elements(self) -> np.ndarray:
        """(order, d, d) array of every element, identity first: the
        breadth-first closure of the generators by walk.

        A closed-form order above MAX_ORDER raises SizeLimitError before the
        walk, as does a closure that passes MAX_ORDER. When the family has a
        closed-form order, a closure that passes it or ends short of it is a
        dedup-key failure and raises ConsistencyError, as does (with or
        without a closed-form order) a generator that does not permute the
        elements found.
        """
        spec, gens, digits = self.spec, self.generators, numerics.DEDUP_DIGITS
        expected = self.order
        elements = self.walk(
            np.eye(self.dim, dtype=gens.dtype)[None],
            lambda block, batch: np.concatenate([block @ g for g in gens[batch]]),
            closure_limit(spec),
            f"closure of {spec} passes its order {expected}: copies of "
            f"one element split into distinct dedup keys at {digits} digits", "elements")
        if expected is not None and len(elements) < expected:
            raise ConsistencyError(
                f"closure of {spec} ends at {len(elements)} of its {expected} elements: "
                f"distinct elements share a dedup key at {digits} digits"
            )
        return elements

    @cached_property
    def seed_basis(self) -> np.ndarray | None:
        """(ambient, d) orthonormal basis that embeds seeds given in ambient
        coordinates: the Helmert basis of the sum-zero model of G(1,1,n), else None."""
        if self.spec.kind == "G" and self.spec.params[0] == 1:
            return _helmert_basis(self.spec.params[2])
        return None

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    @property
    def field(self) -> str:
        """"C" when the generators are complex, else "R"."""
        return "C" if np.iscomplexobj(self.generators) else "R"

    def walk(self, start: np.ndarray, step, too_many: str, split: str,
             noun: str) -> np.ndarray:
        """The rows found breadth-first from start (distinct dedup keys), in order.
        step(block, batch) stacks the images of block under the slice batch of
        the generators, generator-major; a round takes them in order, a batch
        of max(1, _STEP_BYTES // frontier.nbytes) at a time. The batch that
        passes MAX_ORDER raises SizeLimitError(too_many), and one that passes
        the closed-form order (if within MAX_ORDER) is a dedup-key split:
        ConsistencyError(split). A walk that ends must find rows that every
        generator permutes, else the dedup keys split or merged rows:
        ConsistencyError, naming the rows by noun."""
        known, max_order = self.order, numerics.MAX_ORDER
        exact = known is not None and known <= max_order
        limit = known if exact else max_order
        k = len(self.generators)
        index: dict[bytes, int] = {}
        _intern(start, index)
        found, targets, frontier = [start], [], start
        while len(frontier):
            per = max(1, _STEP_BYTES // frontier.nbytes)
            parts = []
            for lo in range(0, k, per):
                images = step(frontier, slice(lo, lo + per))
                at, new = _intern(images, index)
                if len(index) > limit:
                    raise ConsistencyError(split) if exact else SizeLimitError(too_many)
                parts.append((at, images[new]))
            at, frontier = map(np.concatenate, zip(*parts))
            targets.append(at.reshape(k, -1))
            found.append(frontier)
        # maps[g, j] is the position of row j's image under g: a permutation iff it hits all n
        maps = np.concatenate(targets, axis=1)
        hit = np.zeros(maps.shape, dtype=bool)
        hit[np.arange(k)[:, None], maps] = True
        if not hit.all():
            raise ConsistencyError(
                f"the generators of {self.spec} do not permute the {len(index)} {noun} found: "
                f"dedup keys at {numerics.DEDUP_DIGITS} digits split or merge them")
        return np.concatenate(found)

    @property
    def order(self) -> int | None:
        """The family's closed-form order; None for an explicit group (len(elements) closes it)."""
        return group_order(self.spec)

    def embed_seed(self, v: np.ndarray) -> np.ndarray:
        """Map a seed vector, scaled by numerics.pow2_scaled, into the
        representation space.

        Accepts model coordinates directly; for hyperplane models also accepts
        ambient coordinates with zero coordinate sum. The scaled seed's
        largest part is below 1, so its imaginary parts (for a real group) and
        its ambient sum are judged independently of the seed's scale.
        """
        v = pow2_scaled(np.asarray(v))
        if self.field == "R" and np.iscomplexobj(v):
            if np.abs(v.imag).max() > 1e-12:
                raise InputError(f"{self.spec} is a real group; seed has imaginary parts")
            v = v.real
        v = v.astype(self.generators.dtype)
        if self.seed_basis is not None and len(v) == self.seed_basis.shape[0]:
            if abs(v.sum()) > REL_EQ:
                raise InputError(
                    f"seed for {self.spec} given in ambient coordinates must sum to zero"
                )
            return self.seed_basis.T @ v
        if len(v) != self.dim:
            raise InputError(
                f"seed length {len(v)} does not match {self.spec} (dim {self.dim})"
            )
        return v


def _su2(a: float, b: float, c: float, d: float) -> np.ndarray:
    """Unit quaternion a+bi+cj+dk as an SU(2) matrix."""
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _helmert_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the sum-zero hyperplane of R^n, as columns."""
    B = np.zeros((n, n - 1))
    for k in range(1, n):
        B[:k, k - 1] = 1.0
        B[k, k - 1] = -float(k)
        B[:, k - 1] /= math.sqrt(k * (k + 1))
    return B


def _reflection(root: np.ndarray, zeta: complex = -1.0) -> np.ndarray:
    """The reflection that multiplies root by zeta and fixes its orthogonal
    complement, I - (1 - zeta) v v*/|v|^2; real when root and zeta are."""
    v = np.asarray(root)
    return np.eye(len(v)) - (1 - zeta) / np.vdot(v, v).real * np.outer(v, v.conj())


def _imprimitive(m: int, p: int, n: int) -> list[np.ndarray]:
    """G(m,p,n) from its roots: e_i - e_(i+1) with zeta = -1 (transpositions),
    e_1 with zeta = omega^p when p < m, and e_1 - omega e_2 with zeta = -1
    when p > 1, where omega = exp(2 pi i/m); for m = 1, the transpositions
    projected onto the sum-zero hyperplane."""
    omega = -1.0 if m == 2 else np.exp(2j * np.pi / m)
    e = np.eye(n, dtype=float if m <= 2 else complex)
    gens = [_reflection(e[i] - e[i + 1]) for i in range(n - 1)]
    if p < m:
        gens.append(_reflection(e[0], omega ** p))
    if p > 1:
        gens.append(_reflection(e[0] - omega * e[1]))
    if m == 1:
        B = _helmert_basis(n)
        return [B.T @ T @ B for T in gens]
    return gens


def _check_imprimitive(m: int, p: int, n: int) -> str | None:
    if m < 1 or p < 1 or n < 1:
        return "G(m,p,n) parameters must be positive"
    if m % p:
        return f"G({m},{p},{n}): p must divide m"
    if n < 2:
        return f"G({m},{p},{n}): n >= 2 required (degenerate family)"
    if (m, p, n) == (2, 2, 2):
        return "G(2,2,2) is reducible and not supported"
    return None


def _binary_dihedral(k: int) -> list[np.ndarray]:
    omega = np.exp(2j * np.pi / k)
    return [np.diag([omega, omega.conjugate()]),
            np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)]


def _heisenberg(d: int) -> list[np.ndarray]:
    if d == 2:
        return [np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])]
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    return [shift, clock]


def _at_least(low: int, message: str) -> Callable[[int], str | None]:
    """Check of a one-parameter family: message when the parameter is below low."""
    return lambda k: message if k < low else None


@dataclass(frozen=True)
class _Family:
    """One row of the family table, keyed by spec head.

    arity       number of integer parameters the spec takes
    order       closed-form group order, from the parameters
    generators  generator matrices, from the parameters
    check       error message for invalid parameters, else None
    as_g        for the aliases A, B and D: the G(m,p,n) parameters they name
                (these rows have no order or generators of their own)
    dim         dimension of the generators, from the parameters
    """

    arity: int
    order: Callable[..., int] | None = None
    generators: Callable[..., list[np.ndarray]] | None = None
    check: Callable[..., str | None] = lambda *params: None
    as_g: Callable[..., tuple[int, int, int]] | None = None
    dim: Callable[..., int] = lambda *params: 2


_FAMILIES = {
    "G": _Family(3, lambda m, p, n: m ** n * math.factorial(n) // p, _imprimitive,
                 _check_imprimitive, dim=lambda m, p, n: n - (m == 1)),
    "A": _Family(1, check=_at_least(1, "A(d) needs d >= 1"), as_g=lambda d: (1, 1, d + 1)),
    "B": _Family(1, check=_at_least(2, "B(d) needs d >= 2"), as_g=lambda d: (2, 1, d)),
    "D": _Family(1, check=_at_least(3, "D(d) needs d >= 3 (D(2) is reducible)"),
                 as_g=lambda d: (2, 2, d)),
    "dihedral": _Family(1, lambda m: 2 * m,
                        lambda m: [_rotation(2 * math.pi / m), np.diag([1.0, -1.0])],
                        _at_least(3, "dihedral(m) needs m >= 3 for irreducibility")),
    "rot": _Family(1, lambda m: m, lambda m: [_rotation(2 * math.pi / m)],
                   _at_least(3, "rot(m) needs m >= 3 for irreducibility")),
    "binD": _Family(1, lambda k: 2 * k, _binary_dihedral,
                    lambda k: "binD(k) needs even k >= 4" if k < 4 or k % 2 else None),
    "binT": _Family(0, lambda: 24,
                    lambda: [_su2(0, 1, 0, 0), _su2(0.5, 0.5, 0.5, 0.5)]),
    "binO": _Family(0, lambda: 48,
                    lambda: [_su2(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0, 0),
                             _su2(0.5, 0.5, 0.5, 0.5)]),
    "binI": _Family(0, lambda: 120,
                    lambda: [_su2(0.5, 0.5, 0.5, 0.5),
                             _su2(PHI / 2, 1 / (2 * PHI), 0.5, 0)]),
    "H3": _Family(0, lambda: 120, lambda: [_reflection(r) for r in H3_SIMPLE_ROOTS],
                  dim=lambda: 3),
    "H4": _Family(0, lambda: 14400, lambda: [_reflection(r) for r in H4_SIMPLE_ROOTS],
                  dim=lambda: 4),
    "heis": _Family(1, lambda d: d ** 3, _heisenberg, _at_least(2, "heis(d) needs d >= 2"),
                    dim=lambda d: d),
}


def build_generators(spec: GroupSpec) -> list[np.ndarray]:
    """Generator matrices for a validated spec."""
    if spec.kind == "explicit":
        return _load_explicit(spec.params[0])
    return _FAMILIES[spec.kind].generators(*spec.params)


def _entry(e) -> complex:
    """A generator-file entry: a real number or a [re, im] pair."""
    return _json_complex(e) if isinstance(e, list) else complex(_json_number(e))


def _load_explicit(path: str) -> list[np.ndarray]:
    """The file's generators: complex128 under "field": "C", else float64."""
    data = _read_json(path, InputError, "generator file")
    if not isinstance(data, dict) or "field" not in data or "generators" not in data:
        raise InputError("generator file needs 'field' and 'generators' keys")
    if data["field"] not in ("R", "C"):
        raise InputError("field must be 'R' or 'C'")
    try:
        gens = [np.array([[_entry(e) for e in row] for row in mat]) for mat in data["generators"]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed generator entry: {exc}") from exc
    if data["field"] == "R":
        # per generator, so a nan in any fails; initial: an empty matrix has no max
        if not all(np.abs(g.imag).max(initial=0.0) <= 1e-12 for g in gens):
            raise InputError("field 'R' but generators have imaginary parts")
        gens = [g.real for g in gens]
    return gens


_SPEC_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)\s*(?:\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\))?$")


def parse_group_spec(text: str) -> GroupSpec:
    """Parse the mini-grammar: G(m,p,n), A(d), B(d), D(d), dihedral(m), rot(m),
    binT, binO, binI, binD(k), H3, H4, heis(d), explicit:<path>."""
    text = text.strip()
    if text.startswith("explicit:"):
        path = text[len("explicit:"):]
        if not path:
            raise InputError("explicit spec needs a file path")
        return GroupSpec("explicit", (path,), text)
    m = _SPEC_RE.match(text)
    if not m:
        raise InputError(f"cannot parse group spec {text!r}")
    head, argstr = m.group(1), m.group(2)
    args = tuple(int(a) for a in argstr.split(",")) if argstr else ()
    family = _FAMILIES.get(head)
    if family is None:
        raise InputError(f"unknown group family {head!r}")
    if len(args) != family.arity:
        raise InputError(f"{head} takes {family.arity} parameter(s), got {len(args)}")
    problem = family.check(*args)
    if problem:
        raise InputError(problem)
    label = f"{head}({','.join(map(str, args))})" if args else head
    if family.as_g:
        return GroupSpec("G", family.as_g(*args), label)
    return GroupSpec(head, args, label)


def group_order(spec: GroupSpec) -> int | None:
    """Abstract order when the family has a closed form, else None."""
    if spec.kind == "explicit":
        return None
    return _FAMILIES[spec.kind].order(*spec.params)


def closure_limit(spec: GroupSpec) -> str:
    """The message of a closure of spec that passes numerics.MAX_ORDER, raised
    at once when its closed-form order does (after _refuse_dimension's rule)."""
    max_order = numerics.MAX_ORDER
    too_many = f"closure of {spec} exceeds max_order={max_order}"
    _refuse_dimension(spec)
    known = group_order(spec)
    if known is not None and known > max_order:
        raise SizeLimitError(too_many)
    return too_many


def build_group(spec: GroupSpec | str) -> FiniteMatrixGroup:
    """Parse (if needed) and generate. Cached per family spec.

    The group is closed only when its elements are read, so numerics.MAX_ORDER
    bounds the walks that run, not the family's order. A family whose squared
    dimension passes MAX_ORDER raises SizeLimitError before its generators
    are built. Generators that are not unitary within REL_EQ (only an
    explicit file can give them) raise InputError when FiniteMatrixGroup is
    made from them.
    """
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if spec.kind == "explicit":
        return _assemble(spec)
    return _build_cached(spec)


def _assemble(spec: GroupSpec) -> FiniteMatrixGroup:
    _refuse_dimension(spec)
    return FiniteMatrixGroup(spec, build_generators(spec))


_build_cached = lru_cache(maxsize=64)(_assemble)


def _refuse_dimension(spec: GroupSpec) -> None:
    # G(m,p,n) has about d generators of d^2 entries each: with d^2 > MAX_ORDER
    # they outgrow a walk of MAX_ORDER lines before any walk starts. At 200,000
    # such a family has d >= 448, so its order (G's m^n n!/p, at least d^2)
    # passes MAX_ORDER too and is not computed
    if spec.kind != "explicit":
        d, max_order = _FAMILIES[spec.kind].dim(*spec.params), numerics.MAX_ORDER
        if d * d > max_order:
            raise SizeLimitError(f"{spec} exceeds max_order={max_order}: its order "
                                 f"does, and so does its dimension {d} squared")


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog group with the seed vectors the verification suite uses.

    Seeds for hyperplane models are in ambient coordinates (zero sum).
    """

    spec: GroupSpec
    seeds: tuple = ()


def _fundamental_weights(simple_roots: np.ndarray) -> list[np.ndarray]:
    """Vectors dual to the simple roots: <w_i, r_j> = delta_ij."""
    inv = np.linalg.inv(simple_roots)
    return [inv[:, k].copy() for k in range(inv.shape[1])]


def _ones(k: int, n: int) -> np.ndarray:
    v = np.zeros(n)
    v[:k] = 1.0
    return v


@lru_cache(maxsize=None)
def catalog() -> tuple[CatalogEntry, ...]:
    """Built-in groups with seed vectors, in a stable order (CLI @k references).

    The tuple is built once per process and shared by every caller; its seed
    arrays are read-only.
    """
    entries: list[CatalogEntry] = []

    a_seeds = {
        3: [(1, 1, -1, -1), (3, -1, -1, -1)],
        4: [(4, -1, -1, -1, -1), (2, 2, 2, -3, -3)],
        5: [(5, -1, -1, -1, -1, -1), (1, 1, 1, -1, -1, -1), (2, 2, -1, -1, -1, -1)],
    }
    for d, seeds in a_seeds.items():
        entries.append(CatalogEntry(
            parse_group_spec(f"A({d})"),
            tuple(np.array(s, dtype=float) for s in seeds),
        ))

    for label in ("B(2)", "B(3)", "B(4)", "B(5)", "D(3)", "D(4)"):
        spec = parse_group_spec(label)
        d = spec.params[2]
        entries.append(CatalogEntry(spec, tuple(_ones(k, d) for k in range(1, d + 1))))

    generic2 = np.array([math.cos(0.37), math.sin(0.37)])
    for m in (3, 4, 5):
        entries.append(CatalogEntry(
            parse_group_spec(f"dihedral({m})"),
            (np.array([1.0, 0.0]), generic2),
        ))

    genericC2 = np.array([1.0, 0.3 + 0.2j])
    for k in (4, 6, 8):
        entries.append(CatalogEntry(parse_group_spec(f"binD({k})"), (genericC2,)))

    # Bloch-sphere polyhedron seeds for the binary polyhedral groups:
    # c3/s3 point along a cube diagonal, the pi/8 seed along an edge axis,
    # c5/s5 along an icosahedron vertex axis. binT: tetrahedron vertex and
    # face axes, a 2-fold axis, a generic seed; binO and binI: vertex, face
    # and edge axes, then a generic seed.
    c3 = math.sqrt((1 + 1 / math.sqrt(3)) / 2)
    s3 = math.sqrt((1 - 1 / math.sqrt(3)) / 2)
    e4 = np.exp(1j * math.pi / 4)
    z5 = 1 / math.sqrt(PHI + 2)
    c5 = math.sqrt((1 + z5) / 2)
    s5 = math.sqrt((1 - z5) / 2)
    tetra_vertex = np.array([c3, e4 * s3])
    tetra_face = np.array([s3, -e4 * c3])
    entries.append(CatalogEntry(
        parse_group_spec("binT"),
        (tetra_vertex, tetra_face, np.array([1.0 + 0j, 0.0]), genericC2),
    ))
    entries.append(CatalogEntry(
        parse_group_spec("binO"),
        (np.array([1.0 + 0j, 0.0]), tetra_vertex,
         np.array([math.cos(math.pi / 8) + 0j, math.sin(math.pi / 8)]), genericC2),
    ))
    entries.append(CatalogEntry(
        parse_group_spec("binI"),
        (np.array([c5, 1j * s5]), tetra_vertex,
         np.array([PHI / 2, (1 / PHI + 1j) / 2]), genericC2),
    ))

    # H3, H4: fundamental weights, ordered by line count
    w3 = _fundamental_weights(H3_SIMPLE_ROOTS)
    entries.append(CatalogEntry(parse_group_spec("H3"), (w3[2], w3[0], w3[1])))
    w4 = _fundamental_weights(H4_SIMPLE_ROOTS)
    entries.append(CatalogEntry(parse_group_spec("H4"), (w4[3], w4[0], w4[2], w4[1])))

    for d in (3, 4):
        entries.append(CatalogEntry(
            parse_group_spec(f"heis({d})"),
            (np.eye(d, dtype=complex)[0], np.arange(1, d + 1).astype(complex)),
        ))
    for entry in entries:
        for seed in entry.seeds:
            seed.setflags(write=False)
    return tuple(entries)


def catalog_entry(label: str) -> CatalogEntry:
    """Look up a catalog entry by spec string."""
    spec = parse_group_spec(label)
    for entry in catalog():
        if entry.spec.kind == spec.kind and entry.spec.params == spec.params:
            return entry
    raise InputError(f"no catalog entry for {label!r}")
