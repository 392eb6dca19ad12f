"""Finite unitary matrix groups: family generators, closure, unitarization, catalog.

Supported families: imprimitive monomial groups G(m,p,n), the symmetric family
A(d) = G(1,1,d+1) realized on the sum-zero hyperplane, real dihedral/rotation
groups on the plane, binary dihedral/tetrahedral/octahedral/icosahedral
subgroups of SU(2), the icosahedral reflection groups H3/H4, discrete
Heisenberg groups, and explicit generator files.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ConsistencyError,
    DegeneracyError,
    InputError,
    KeyCollisionError,
    SizeLimitError,
)
from .numerics import DEFAULT_TOL, Tolerance, quantized_keys

DEFAULT_MAX_ORDER = 200_000

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
    """Symbolic group identifier: family kind, numeric parameters, display label."""

    kind: str
    params: tuple = ()
    label: str = ""

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class FiniteMatrixGroup:
    """A finite unitary matrix group, given by its generators.

    generators (d, d) unitary matrices, float64 for real groups, complex128
               otherwise
    seed_basis optional (ambient, d) orthonormal basis used to embed seed
               vectors given in ambient coordinates (sum-zero model of A(d))
    tol, max_order
               the dedup policy and size limit of closure and orbit walks

    `elements` is enumerated by close_group on first use only.
    """

    spec: GroupSpec
    field: str  # "R" or "C"
    generators: tuple
    seed_basis: np.ndarray | None = None
    tol: Tolerance = DEFAULT_TOL
    max_order: int = DEFAULT_MAX_ORDER

    @cached_property
    def elements(self) -> np.ndarray:
        """(order, d, d) array of every element, identity first."""
        return close_group(list(self.generators), self.field, self.spec, self.tol,
                           self.max_order, self.seed_basis).elements

    @property
    def dim(self) -> int:
        return self.generators[0].shape[0]

    @property
    def order(self) -> int:
        """The family's closed-form order, else the number of closed elements."""
        known = group_order(self.spec)
        return known if known is not None else len(self.elements)

    def embed_seed(self, v: np.ndarray) -> np.ndarray:
        """Map a seed vector into the representation space.

        Accepts model coordinates directly; for hyperplane models also accepts
        ambient coordinates with zero coordinate sum.
        """
        v = np.asarray(v)
        if self.field == "R":
            if np.iscomplexobj(v):
                if np.abs(v.imag).max() > 1e-12:
                    raise InputError(f"{self.spec} is a real group; seed has imaginary parts")
                v = v.real
            v = v.astype(float)
        else:
            v = v.astype(complex)
        if self.seed_basis is not None and len(v) == self.seed_basis.shape[0]:
            if abs(v.sum()) > 1e-9 * max(1.0, float(np.abs(v).max())):
                raise InputError(
                    f"seed for {self.spec} given in ambient coordinates must sum to zero"
                )
            return self.seed_basis.T @ v
        if len(v) != self.dim:
            raise InputError(
                f"seed length {len(v)} does not match {self.spec} (dim {self.dim})"
            )
        return v

    def unitarity_deviation(self) -> float:
        """max over g of the max-norm of g*g - I."""
        return _unitarity_deviation(self.elements)


def _unitarity_deviation(mats: np.ndarray) -> float:
    """max over the (n, d, d) stack of the max-norm of M*M - I."""
    eye = np.eye(mats.shape[1])
    dev = 0.0
    for start in range(0, len(mats), 4096):
        block = mats[start:start + 4096]
        grams = np.einsum("nji,njk->nik", block.conj(), block)
        dev = max(dev, float(np.abs(grams - eye).max()))
    return dev


def _enumerated(group: FiniteMatrixGroup, elements: np.ndarray) -> FiniteMatrixGroup:
    """The group with its `elements` already filled in."""
    group.__dict__["elements"] = elements  # the slot cached_property fills
    return group


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


def _monomial_generators(m: int, p: int, n: int) -> list[np.ndarray]:
    """Transpositions plus diagonal/twisted-transposition generators of G(m,p,n)."""
    dtype = float if m <= 2 else complex
    omega = -1.0 if m == 2 else np.exp(2j * np.pi / m)
    gens = []
    for i in range(n - 1):
        T = np.eye(n, dtype=dtype)
        T[[i, i + 1]] = T[[i + 1, i]]
        gens.append(T)
    if p < m:
        D = np.eye(n, dtype=dtype)
        D[0, 0] = omega ** p
        gens.append(D)
    if p > 1:
        # e1 -> omega e2, e2 -> conj(omega) e1; determinant of nonzero entries is 1
        T = np.eye(n, dtype=dtype)
        T[0, 0] = T[1, 1] = 0
        T[0, 1] = np.conj(omega)
        T[1, 0] = omega
        gens.append(T)
    return gens


def build_generators(spec: GroupSpec) -> tuple[list[np.ndarray], str]:
    """Generator matrices and field tag for a validated spec."""
    kind, params = spec.kind, spec.params
    if kind == "imprimitive":
        m, p, n = params
        if m == 1:
            # hyperplane model of the symmetric group: project adjacent
            # transpositions onto the sum-zero complement
            B = _helmert_basis(n)
            gens = []
            for i in range(n - 1):
                P = np.eye(n)
                P[[i, i + 1]] = P[[i + 1, i]]
                gens.append(B.T @ P @ B)
            return gens, "R"
        return _monomial_generators(m, p, n), "R" if m <= 2 else "C"
    if kind == "dihedral":
        (m,) = params
        return [_rotation(2 * math.pi / m), np.diag([1.0, -1.0])], "R"
    if kind == "rotation":
        (m,) = params
        return [_rotation(2 * math.pi / m)], "R"
    if kind == "binary_dihedral":
        (k,) = params
        omega = np.exp(2j * np.pi / k)
        return [np.diag([omega, omega.conjugate()]),
                np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)], "C"
    if kind == "binary_tetrahedral":
        return [_su2(0, 1, 0, 0), _su2(0.5, 0.5, 0.5, 0.5)], "C"
    if kind == "binary_octahedral":
        r = 1.0 / math.sqrt(2.0)
        return [_su2(r, r, 0, 0), _su2(0.5, 0.5, 0.5, 0.5)], "C"
    if kind == "binary_icosahedral":
        return [_su2(0.5, 0.5, 0.5, 0.5),
                _su2(PHI / 2, 1 / (2 * PHI), 0.5, 0)], "C"
    if kind in ("coxeter_h3", "coxeter_h4"):
        roots = H3_SIMPLE_ROOTS if kind == "coxeter_h3" else H4_SIMPLE_ROOTS
        d = roots.shape[1]
        return [np.eye(d) - 2.0 * np.outer(r, r) for r in roots], "R"
    if kind == "heisenberg":
        (d,) = params
        if d == 2:
            return [np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])], "R"
        omega = np.exp(2j * np.pi / d)
        shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        clock = np.diag(omega ** np.arange(d))
        return [shift, clock], "C"
    if kind == "explicit":
        (path,) = params
        return _load_explicit(path)
    raise InputError(f"unknown group kind: {kind}")


def _load_explicit(path: str) -> tuple[list[np.ndarray], str]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read generator file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"generator file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "field" not in data or "generators" not in data:
        raise InputError("generator file needs 'field' and 'generators' keys")
    ftag = data["field"]
    if ftag not in ("R", "C"):
        raise InputError("field must be 'R' or 'C'")
    gens = []
    for mat in data["generators"]:
        rows = []
        for row in mat:
            entries = []
            for e in row:
                if isinstance(e, (int, float)):
                    entries.append(complex(e))
                else:
                    re_, im_ = e
                    entries.append(complex(re_, im_))
            rows.append(entries)
        M = np.array(rows)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise InputError("generators must be square matrices")
        gens.append(M)
    if not gens:
        raise InputError("generator list is empty")
    d = gens[0].shape[0]
    if any(g.shape[0] != d for g in gens):
        raise InputError("generators must share one dimension")
    if any(abs(np.linalg.det(g)) < 1e-12 for g in gens):
        raise InputError("generators must be invertible")
    if ftag == "R":
        if max(float(np.abs(g.imag).max()) for g in gens) > 1e-12:
            raise InputError("field 'R' but generators have imaginary parts")
        gens = [g.real.copy() for g in gens]
    return gens, ftag


_SPEC_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)\s*(?:\(\s*([-\d\s,]+)\s*\))?$")


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

    def want(n_args: int) -> None:
        if len(args) != n_args:
            raise InputError(f"{head} takes {n_args} parameter(s), got {len(args)}")

    if head == "G":
        want(3)
        return _imprimitive_spec(*args)
    if head == "A":
        want(1)
        (d,) = args
        if d < 1:
            raise InputError("A(d) needs d >= 1")
        return _imprimitive_spec(1, 1, d + 1, label=f"A({d})")
    if head == "B":
        want(1)
        (d,) = args
        if d < 2:
            raise InputError("B(d) needs d >= 2")
        return _imprimitive_spec(2, 1, d, label=f"B({d})")
    if head == "D":
        want(1)
        (d,) = args
        if d < 3:
            raise InputError("D(d) needs d >= 3 (D(2) is reducible)")
        return _imprimitive_spec(2, 2, d, label=f"D({d})")
    if head == "dihedral":
        want(1)
        (mm,) = args
        if mm < 3:
            raise InputError("dihedral(m) needs m >= 3 for irreducibility")
        return GroupSpec("dihedral", (mm,), f"dihedral({mm})")
    if head == "rot":
        want(1)
        (mm,) = args
        if mm < 3:
            raise InputError("rot(m) needs m >= 3 for irreducibility")
        return GroupSpec("rotation", (mm,), f"rot({mm})")
    if head == "binD":
        want(1)
        (k,) = args
        if k < 4 or k % 2:
            raise InputError("binD(k) needs even k >= 4")
        return GroupSpec("binary_dihedral", (k,), f"binD({k})")
    if head in ("binT", "binO", "binI"):
        want(0)
        kind = {"binT": "binary_tetrahedral", "binO": "binary_octahedral",
                "binI": "binary_icosahedral"}[head]
        return GroupSpec(kind, (), head)
    if head in ("H3", "H4"):
        want(0)
        return GroupSpec("coxeter_h3" if head == "H3" else "coxeter_h4", (), head)
    if head == "heis":
        want(1)
        (d,) = args
        if d < 2:
            raise InputError("heis(d) needs d >= 2")
        return GroupSpec("heisenberg", (d,), f"heis({d})")
    raise InputError(f"unknown group family {head!r}")


def _imprimitive_spec(m: int, p: int, n: int, label: str | None = None) -> GroupSpec:
    if m < 1 or p < 1 or n < 1:
        raise InputError("G(m,p,n) parameters must be positive")
    if m % p:
        raise InputError(f"G({m},{p},{n}): p must divide m")
    if n < 2:
        raise InputError(f"G({m},{p},{n}): n >= 2 required (degenerate family)")
    if (m, p, n) == (2, 2, 2):
        raise InputError("G(2,2,2) is reducible and not supported")
    return GroupSpec("imprimitive", (m, p, n), label or f"G({m},{p},{n})")


def group_order(spec: GroupSpec) -> int | None:
    """Abstract order when the family has a closed form, else None."""
    kind, params = spec.kind, spec.params
    if kind == "imprimitive":
        m, p, n = params
        return m ** n * math.factorial(n) // p
    if kind == "dihedral":
        return 2 * params[0]
    if kind == "rotation":
        return params[0]
    if kind == "binary_dihedral":
        return 2 * params[0]
    if kind == "binary_tetrahedral":
        return 24
    if kind == "binary_octahedral":
        return 48
    if kind == "binary_icosahedral":
        return 120
    if kind == "coxeter_h3":
        return 120
    if kind == "coxeter_h4":
        return 14400
    if kind == "heisenberg":
        return params[0] ** 3
    return None


def close_group(
    generators: list[np.ndarray],
    field: str,
    spec: GroupSpec,
    tol: Tolerance = DEFAULT_TOL,
    max_order: int = DEFAULT_MAX_ORDER,
    seed_basis: np.ndarray | None = None,
) -> FiniteMatrixGroup:
    """Breadth-first closure of the generated group, deduplicated by quantized key.

    When the family has a closed-form order, a closure that passes it or ends
    short of it is a dedup-key failure and raises ConsistencyError.
    """
    if not generators:
        raise InputError("no generators")
    d = generators[0].shape[0]
    dtype = float if field == "R" else complex
    gens = [np.asarray(g, dtype=dtype) for g in generators]
    digits = tol.dedup_digits
    expected = group_order(spec)
    elements: list[np.ndarray] = [np.eye(d, dtype=dtype)]
    seen: dict[bytes, int] = {quantized_keys(elements[0][None], digits)[0]: 0}
    frontier = elements[:]
    while frontier:
        block = np.stack(frontier)
        next_frontier: list[np.ndarray] = []
        for g in gens:
            products = block @ g
            for P, key in zip(products, quantized_keys(products, digits)):
                idx = seen.get(key)
                if idx is None:
                    if len(elements) >= max_order:
                        raise SizeLimitError(
                            f"closure of {spec} exceeds max_order={max_order}"
                        )
                    if len(elements) == expected:
                        raise ConsistencyError(
                            f"closure of {spec} passes its order {expected}: copies of "
                            f"one element split into distinct dedup keys at {digits} digits"
                        )
                    seen[key] = len(elements)
                    elements.append(P)
                    next_frontier.append(P)
                elif float(np.abs(P - elements[idx]).max()) > 1e-6:
                    raise KeyCollisionError(
                        f"distinct elements of {spec} collide at {digits} digits"
                    )
        frontier = next_frontier
    if expected is not None and len(elements) < expected:
        raise ConsistencyError(
            f"closure of {spec} ends at {len(elements)} of its {expected} elements: "
            f"distinct elements share a dedup key at {digits} digits"
        )
    group = FiniteMatrixGroup(spec, field, tuple(gens), seed_basis, tol, max_order)
    return _enumerated(group, np.stack(elements))


def unitarize(group: FiniteMatrixGroup, tol: Tolerance = DEFAULT_TOL) -> FiniteMatrixGroup:
    """Conjugate the representation so every element is unitary.

    Averages H = (1/|G|) sum_g g*g, factors H = L L*, and maps every element
    and generator g to L* g L*^-1. Returns the input unchanged when it is
    already unitary within tolerance.
    """
    if group.unitarity_deviation() <= tol.rel_eq:
        return group
    E = group.elements
    H = np.einsum("nji,njk->ik", E.conj(), E) / len(E)
    try:
        L = np.linalg.cholesky(H)
        A = L.conj().T
        Ainv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError("averaged Hermitian form is singular") from exc

    def conjugate(mats: np.ndarray) -> np.ndarray:
        out = np.einsum("ij,njk,kl->nil", A, mats, Ainv)
        return out.real if group.field == "R" and np.iscomplexobj(out) else out

    out = _enumerated(
        FiniteMatrixGroup(group.spec, group.field,
                          tuple(conjugate(np.stack(group.generators))),
                          group.seed_basis, group.tol, group.max_order),
        conjugate(E),
    )
    if out.unitarity_deviation() > tol.rel_eq:
        raise DegeneracyError("unitarization failed to reach tolerance")
    return out


def build_group(
    spec: GroupSpec | str,
    tol: Tolerance = DEFAULT_TOL,
    max_order: int = DEFAULT_MAX_ORDER,
) -> FiniteMatrixGroup:
    """Parse (if needed) and generate. Cached per family spec.

    Unitary generators are kept as they are and the group is closed only when
    its elements are read. Otherwise (only explicit files can fail the test)
    the group is closed and unitarized at once.
    """
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if spec.kind == "explicit":
        return _assemble(spec, tol, max_order)
    return _build_cached(spec, tol, max_order)


@lru_cache(maxsize=64)
def _build_cached(spec: GroupSpec, tol: Tolerance, max_order: int) -> FiniteMatrixGroup:
    return _assemble(spec, tol, max_order)


def _assemble(spec: GroupSpec, tol: Tolerance, max_order: int) -> FiniteMatrixGroup:
    order = group_order(spec)
    if order is not None and order > max_order:
        raise SizeLimitError(f"closure of {spec} exceeds max_order={max_order}")
    gens, ftag = build_generators(spec)
    seed_basis = None
    if spec.kind == "imprimitive" and spec.params[0] == 1:
        seed_basis = _helmert_basis(spec.params[2])
    if _unitarity_deviation(np.stack(gens)) <= tol.rel_eq:
        return FiniteMatrixGroup(spec, ftag, tuple(gens), seed_basis, tol, max_order)
    return unitarize(close_group(gens, ftag, spec, tol, max_order, seed_basis), tol)


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog group with the seed vectors the verification suite uses.

    Seeds for hyperplane models are in ambient coordinates (zero sum);
    expected_lines records the observed orbit line counts.
    """

    spec: GroupSpec
    seeds: tuple = ()
    expected_lines: tuple = ()
    seed_note: str = ""


def _fundamental_weights(simple_roots: np.ndarray) -> list[np.ndarray]:
    """Vectors dual to the simple roots: <w_i, r_j> = delta_ij."""
    inv = np.linalg.inv(simple_roots)
    return [inv[:, k].copy() for k in range(inv.shape[1])]


def _ones(k: int, n: int) -> np.ndarray:
    v = np.zeros(n)
    v[:k] = 1.0
    return v


def catalog() -> list[CatalogEntry]:
    """Built-in groups with seed vectors; order is stable (CLI @k references)."""
    entries: list[CatalogEntry] = []

    a_seeds = {
        3: ([(1, 1, -1, -1), (3, -1, -1, -1)], (3, 4)),
        4: ([(4, -1, -1, -1, -1), (2, 2, 2, -3, -3)], (5, 10)),
        5: ([(5, -1, -1, -1, -1, -1), (1, 1, 1, -1, -1, -1),
             (2, 2, -1, -1, -1, -1)], (6, 10, 15)),
    }
    for d, (seeds, counts) in a_seeds.items():
        entries.append(CatalogEntry(
            parse_group_spec(f"A({d})"),
            tuple(np.array(s, dtype=float) for s in seeds),
            counts,
            "ambient coordinates on the sum-zero hyperplane",
        ))

    b_counts = {2: (2, 2), 3: (3, 6, 4), 4: (4, 12, 16, 8), 5: (5, 20, 40, 40, 16)}
    for d in (2, 3, 4, 5):
        entries.append(CatalogEntry(
            parse_group_spec(f"B({d})"),
            tuple(_ones(k, d) for k in range(1, d + 1)),
            b_counts[d],
            "seeds e1+...+ek",
        ))

    d_counts = {3: (3, 6, 4), 4: (4, 12, 16, 4)}
    for d in (3, 4):
        entries.append(CatalogEntry(
            parse_group_spec(f"D({d})"),
            tuple(_ones(k, d) for k in range(1, d + 1)),
            d_counts[d],
            "seeds e1+...+ek",
        ))

    generic2 = np.array([math.cos(0.37), math.sin(0.37)])
    for m, counts in ((3, (3, 6)), (4, (2, 4)), (5, (5, 10))):
        entries.append(CatalogEntry(
            parse_group_spec(f"dihedral({m})"),
            (np.array([1.0, 0.0]), generic2),
            counts,
            "axis seed and a generic seed",
        ))

    genericC2 = np.array([1.0, 0.3 + 0.2j])
    for k in (4, 6, 8):
        entries.append(CatalogEntry(
            parse_group_spec(f"binD({k})"),
            (genericC2,),
            (k,),
            "generic seed (observed line count)",
        ))

    # Bloch-sphere polyhedron seeds for the binary polyhedral groups:
    # c3/s3 point along a cube diagonal, the pi/8 seed along an edge axis,
    # c5/s5 along an icosahedron vertex axis.
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
        (4, 4, 6, 12),
        "tetrahedron vertex/face axes, a 2-fold axis, and a generic seed",
    ))
    entries.append(CatalogEntry(
        parse_group_spec("binO"),
        (np.array([1.0 + 0j, 0.0]), tetra_vertex,
         np.array([math.cos(math.pi / 8) + 0j, math.sin(math.pi / 8)]), genericC2),
        (6, 8, 12, 24),
        "octahedron vertex/face/edge axes and a generic seed",
    ))
    entries.append(CatalogEntry(
        parse_group_spec("binI"),
        (np.array([c5, 1j * s5]), tetra_vertex,
         np.array([PHI / 2, (1 / PHI + 1j) / 2]), genericC2),
        (12, 20, 30, 60),
        "icosahedron vertex/face/edge axes and a generic seed",
    ))

    w3 = _fundamental_weights(H3_SIMPLE_ROOTS)
    entries.append(CatalogEntry(
        parse_group_spec("H3"),
        (w3[2], w3[0], w3[1]),
        (6, 10, 15),
        "fundamental weights, ordered by line count",
    ))
    w4 = _fundamental_weights(H4_SIMPLE_ROOTS)
    entries.append(CatalogEntry(
        parse_group_spec("H4"),
        (w4[3], w4[0], w4[2], w4[1]),
        (60, 300, 360, 600),
        "fundamental weights, ordered by line count",
    ))

    for d in (3, 4):
        entries.append(CatalogEntry(
            parse_group_spec(f"heis({d})"),
            (np.eye(d, dtype=complex)[0], np.arange(1, d + 1).astype(complex)),
            (d, d * d),
            "basis seed and a generic seed",
        ))
    return entries


def catalog_entry(label: str) -> CatalogEntry:
    """Look up a catalog entry by spec string."""
    spec = parse_group_spec(label)
    for entry in catalog():
        if entry.spec.kind == spec.kind and entry.spec.params == spec.params:
            return entry
    raise InputError(f"no catalog entry for {label!r}")
