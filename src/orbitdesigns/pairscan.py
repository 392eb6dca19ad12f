"""Two-orbit scan: averaged pair potentials and the pair identity.

For a finite unitary group G acting on the ambient space define

    p_G(x, y, t) = (1/|G|) sum_g |<x, g y>|^(2t),
    f_G(x, y, t) = p_G(x,x,t) p_G(y,y,t) - p_G(x,y,t)^2.

For unit x and y these are the potentials b_xx, b_yy, b_xy of the two
orbits, so the union weighting solves A alpha^2 + B alpha + C = 0 with
A = p_xx + p_yy - 2 p_xy (see unions). Its discriminant is
B^2 - 4AC = -4 (f_G - c_t A), so the union admits a double-root weighting at
strength t exactly when

    f_G = c_t (p_xx + p_yy - 2 p_xy),

the identity that unions.pair_identity tests; a residual within
unions.IDENTITY_TOL holds here and gives solve_union its root.

By Sobolev's theorem an orbit Gx is a (t,t)-design exactly when the S_t
G-invariant harmonics phi_i of bidegree (k,k), k <= t, vanish at x. The union
potential minus c_t is then a positive sum of squares
(alpha phi_i(x) + (1 - alpha) phi_i(y))^2, so the identity is vacuous for every
pair when S_t = 0, holds for every pair when S_t = 1 and fails for a generic
pair when S_t >= 2. Molien's formula gives S_t exactly; scan() reads its
verdicts off it, and its random pairs only fill in residuals and cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import moments, welch_targets
from .errors import ConsistencyError, InputError
from .groups import FiniteMatrixGroup
from .unions import IDENTITY_TOL, pair_identity

FAILS_TOL = 1e-3  # identity residual at or above this fails; above IDENTITY_TOL, indeterminate
MOLIEN_TOL = 1e-6  # a Molien mean this far from an integer is an error
SAMPLES = 20  # random pairs that cross-check the counts


def _p_G(group: FiniteMatrixGroup, x: np.ndarray, y: np.ndarray, t_max: int) -> list[float]:
    """[p_G(x, y, t) for t = 1..t_max]."""
    n = group.order
    sums = moments(x[None], np.ones(1), group.elements @ y, np.ones(n), t_max)
    return [m / n for m in sums]


def _classify(p_xx: float, p_yy: float, p_xy: float, c_t: float) -> tuple[str, float | None]:
    """Verdict for the pair identity at one t, with its relative residual
    (None for a degenerate pair: both orbits are designs)."""
    residual = pair_identity(p_xx, p_yy, p_xy, c_t)
    if residual is None:
        return "degenerate", None
    if residual <= IDENTITY_TOL:
        return "holds", residual
    if residual >= FAILS_TOL:
        return "fails", residual
    return "indeterminate", residual


def _harmonic_invariants(group: FiniteMatrixGroup, t_max: int) -> list[int]:
    """[H_1, ..., H_t_max], H_k the number of G-invariant harmonics of bidegree (k,k).

    By Molien's formula the G-invariant forms of bidegree (k,k) number the mean
    over G of |h_k(lambda(g))|^2 over C, or of h_2k(lambda(g)) over R, with h_k
    the complete homogeneous symmetric polynomial of g's eigenvalues. Those
    forms are the harmonics of bidegree (j,j), j <= k, times powers of |x|^2,
    so H_k is the difference of consecutive means.
    """
    lam = np.linalg.eigvals(group.elements)
    real = group.field == "R"
    h = np.zeros((2 * t_max + 1 if real else t_max + 1, len(lam)), complex)
    h[0] = 1.0
    for col in lam.T:  # multiply by 1/(1 - lambda s), one eigenvalue at a time
        for k in range(1, len(h)):
            h[k] += col * h[k - 1]
    means = h[::2].real.mean(axis=1) if real else (np.abs(h) ** 2).mean(axis=1)
    counts = np.rint(means)
    gap = float(np.abs(means - counts).max())
    if gap > MOLIEN_TOL:
        raise ConsistencyError(f"Molien means of {group.spec} miss an integer by {gap:.3e}")
    return np.diff(counts).astype(int).tolist()


@dataclass(frozen=True)
class PairScanReport:
    """Scan outcome: exact verdicts and what the sampled pairs showed of them."""

    harmonic_invariants: tuple  # H_t for t = 1..t_max
    verdicts: tuple  # per t, from S_t = H_1 + ... + H_t
    unanimous: tuple  # per t, every sample gave the same verdict
    max_residuals: tuple  # per t, max over non-degenerate samples (None if none)
    t_generic: int
    t_pairs: tuple | None  # (lo, hi) inclusive, None for the empty range

    def verdict_at(self, t: int) -> str:
        return self.verdicts[t - 1]


def _draw_unit(rng: np.random.Generator, dim: int, field: str) -> np.ndarray:
    if field == "C":
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    else:
        v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def scan(group: FiniteMatrixGroup, t_max: int = 10, seed: int = 0) -> PairScanReport:
    """Scan of the pair identity over t = 1..t_max.

    With S_t invariant harmonics of bidegree up to (t,t), the verdict at t is
    "degenerate" where S_t = 0, "holds" where S_t = 1, "fails" where S_t >= 2.
    t_generic, the strength of a generic orbit, is the last t with S_t = 0
    (t_max if none); t_pairs is the run of holds above it.

    SAMPLES unit pairs are drawn from numpy's seeded Generator, x then y per
    sample (complex vectors from independent real and imaginary normals), and
    classified at every t. A sample that fails where S_t <= 1, or is not
    degenerate where S_t = 0, contradicts the counts and raises
    ConsistencyError; one that holds where S_t >= 2 is a special pair.
    """
    if t_max < 1:
        raise InputError("t_max must be >= 1")
    if seed < 0:
        raise InputError("seed must be >= 0")
    counts = _harmonic_invariants(group, t_max)
    totals = np.cumsum(counts).tolist()
    rng = np.random.default_rng(seed)
    targets = welch_targets(group.field, group.dim, t_max)
    seen = [set() for _ in range(t_max)]  # per t, the verdicts the samples gave
    max_residuals = [None] * t_max  # per t, over the non-degenerate samples
    for j in range(SAMPLES):
        x = _draw_unit(rng, group.dim, group.field)
        y = _draw_unit(rng, group.dim, group.field)
        p = zip(*(_p_G(group, a, b, t_max) for a, b in ((x, x), (y, y), (x, y))), targets)
        for t, (p_t, s) in enumerate(zip(p, totals), start=1):
            v, r = _classify(*p_t)
            if (v == "fails" and s <= 1) or (v != "degenerate" and s == 0):
                raise ConsistencyError(
                    f"sample {j} is {v} at t={t}, but {group.spec} has {s} invariant "
                    f"harmonics of bidegree up to ({t},{t}) (H_1..H_{t_max} = {counts})")
            seen[t - 1].add(v)
            if r is not None and (max_residuals[t - 1] is None or r > max_residuals[t - 1]):
                max_residuals[t - 1] = r
    t_generic = totals.count(0)  # totals never decrease
    t_pairs = (t_generic + 1, t_generic + totals.count(1)) if 1 in totals else None
    return PairScanReport(
        harmonic_invariants=tuple(counts),
        verdicts=tuple(("degenerate", "holds", "fails")[min(s, 2)] for s in totals),
        unanimous=tuple(len(v) == 1 for v in seen), max_residuals=tuple(max_residuals),
        t_generic=t_generic, t_pairs=t_pairs,
    )
