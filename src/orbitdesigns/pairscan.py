"""Two-orbit scan: averaged pair potentials and the pair identity.

For a finite unitary group G acting on the ambient space define

    p_G(x, y, t) = (1/|G|) sum_g |<x, g y>|^(2t),
    f_G(x, y, t) = p_G(x,x,t) p_G(y,y,t) - p_G(x,y,t)^2.

The union of the two orbits admits a double-root weighting at strength t
exactly when

    f_G = c_t (|y|^(4t) p_xx + |x|^(4t) p_yy - 2 |x|^(2t) |y|^(2t) p_xy).

scan() samples random unit pairs, classifies the identity at each t, and
reports t_generic (strength of a sampled orbit) and t_pairs (the contiguous
run of unanimous holds above it).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .designs import certified_strength, moments, welch_constant
from .errors import ConsistencyError, InputError
from .groups import FiniteMatrixGroup
from .numerics import DEFAULT_TOL, Tolerance

HOLDS_TOL = 1e-7  # identity residual at or below this is a hold
FAILS_TOL = 1e-3  # at or above this is a fail; between is indeterminate
DEGENERATE_TOL = 1e-10  # both sides this small (vs term scale) means f == 0
REDRAW_F_TOL = 1e-12  # |f| below this at every t marks a non-generic pair
MAX_REDRAWS = 8


def _p_G(group: FiniteMatrixGroup, x: np.ndarray, y: np.ndarray, orders) -> list[float]:
    """[p_G(x, y, t) for t in orders]."""
    n = group.order
    sums = moments(x[None], np.ones(1), group.elements @ y, np.ones(n), orders)
    return [m / n for m in sums]


def _p_triple(group: FiniteMatrixGroup, x: np.ndarray, y: np.ndarray, orders):
    """(p_G(x,x,t), p_G(y,y,t), p_G(x,y,t)) as three lists over t in orders."""
    return _p_G(group, x, x, orders), _p_G(group, y, y, orders), _p_G(group, x, y, orders)


def _as_vector(group: FiniteMatrixGroup, v) -> np.ndarray:
    out = np.asarray(v, dtype=complex if group.field == "C" else float)
    if out.shape != (group.dim,):
        raise InputError(f"vector must have length {group.dim}")
    if np.linalg.norm(out) == 0.0:
        raise InputError("vector must be nonzero")
    return out


def p_G(group: FiniteMatrixGroup, x, y, t: int) -> float:
    """Averaged pair potential (1/|G|) sum_g |<x, g y>|^(2t)."""
    if t < 1:
        raise InputError("t must be a positive integer")
    return _p_G(group, _as_vector(group, x), _as_vector(group, y), [t])[0]


def f_G(group: FiniteMatrixGroup, x, y, t: int) -> float:
    """p_G(x,x,t) p_G(y,y,t) - p_G(x,y,t)^2."""
    (p_xx,), (p_yy,), (p_xy,) = _p_triple(group, _as_vector(group, x),
                                          _as_vector(group, y), [t])
    return p_xx * p_yy - p_xy * p_xy


def _classify(p_xx: float, p_yy: float, p_xy: float, c_t: float,
              nx2t: float = 1.0, ny2t: float = 1.0) -> tuple[str, float | None]:
    """Verdict for the pair identity at one t, with the norm correction.

    Returns (verdict, relative residual); residual is None when both sides
    vanish against the scale of their constituent terms (degenerate case:
    both orbits are already designs, or the orbits coincide).
    """
    lhs = p_xx * p_yy - p_xy * p_xy
    rhs = c_t * (ny2t * ny2t * p_xx + nx2t * nx2t * p_yy - 2.0 * nx2t * ny2t * p_xy)
    scale = p_xx * p_yy + c_t * (ny2t * ny2t * p_xx + nx2t * nx2t * p_yy
                                 + 2.0 * nx2t * ny2t * abs(p_xy))
    if max(abs(lhs), abs(rhs)) <= DEGENERATE_TOL * scale:
        return "degenerate", None
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    if residual <= HOLDS_TOL:
        return "holds", residual
    if residual >= FAILS_TOL:
        return "fails", residual
    return "indeterminate", residual


def pairs_identity_holds(group: FiniteMatrixGroup, x, y, t: int,
                         tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the norm-corrected pair identity holds at strength t.

    Degenerate pairs (both sides zero) satisfy the identity trivially. The
    threshold is tol.rel_eq, tighter than the scan's verdict bands.
    """
    x = _as_vector(group, x)
    y = _as_vector(group, y)
    (p_xx,), (p_yy,), (p_xy,) = _p_triple(group, x, y, [t])
    c_t = float(welch_constant(group.field, group.dim, t))
    nx2t = float(np.linalg.norm(x)) ** (2 * t)
    ny2t = float(np.linalg.norm(y)) ** (2 * t)
    verdict, residual = _classify(p_xx, p_yy, p_xy, c_t, nx2t, ny2t)
    if verdict == "degenerate":
        return True
    return residual <= tol.rel_eq


@dataclass(frozen=True)
class PairSample:
    """One sampled pair with its per-t moments and verdicts."""

    x: np.ndarray
    y: np.ndarray
    redraws: int
    p_xx: tuple
    p_yy: tuple
    p_xy: tuple
    verdicts: tuple
    residuals: tuple
    strength_x: int
    strength_y: int


@dataclass(frozen=True)
class PairScanReport:
    """Aggregate scan outcome over all samples."""

    group_label: str
    t_max: int
    samples: int
    seed: int
    verdicts: tuple  # per t: holds only if unanimous, else downgraded
    unanimous: tuple
    max_residuals: tuple  # per t, max over non-degenerate samples (None if none)
    t_generic: int
    t_pairs: tuple | None  # (lo, hi) inclusive, None for the empty range
    sample_records: tuple

    def verdict_at(self, t: int) -> str:
        return self.verdicts[t - 1]


def _draw_unit(rng: np.random.Generator, dim: int, field: str) -> np.ndarray:
    if field == "C":
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    else:
        v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def scan(group: FiniteMatrixGroup, t_max: int = 10, samples: int = 20,
         seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> PairScanReport:
    """Randomized scan of the pair identity over t = 1..t_max.

    Unit pairs are drawn from numpy's seeded Generator, x then y per sample
    (complex vectors from independent real and imaginary normals). A pair
    with |f_G| <= 1e-12 at every t is non-generic and redrawn, at most
    MAX_REDRAWS times; rejected draws still advance the stream, so results
    are reproducible given (seed, samples).

    The per-t verdict is "holds" only when every sample holds; all-degenerate
    and all-fails aggregate likewise, anything mixed is "indeterminate".
    t_pairs is the contiguous run of holds starting at t_generic + 1.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    if t_max < 1:
        raise InputError("t_max must be >= 1")
    rng = np.random.default_rng(seed)
    targets = [float(welch_constant(group.field, group.dim, t))
               for t in range(1, t_max + 1)]
    records = []
    for _ in range(samples):
        for attempt in range(MAX_REDRAWS + 1):
            x = _draw_unit(rng, group.dim, group.field)
            y = _draw_unit(rng, group.dim, group.field)
            p_xx, p_yy, p_xy = _p_triple(group, x, y, range(1, t_max + 1))
            f_vals = [a * b - c * c for a, b, c in zip(p_xx, p_yy, p_xy)]
            if any(abs(f) > REDRAW_F_TOL for f in f_vals):
                break
        verdicts = []
        residuals = []
        for i in range(t_max):
            verdict, residual = _classify(p_xx[i], p_yy[i], p_xy[i], targets[i])
            verdicts.append(verdict)
            residuals.append(residual)
        # p_G(x,x,t) equals the orbit's frame potential, so the strength of
        # each sampled orbit reads off the diagonal moments directly
        records.append(PairSample(
            x=x, y=y, redraws=attempt,
            p_xx=tuple(p_xx), p_yy=tuple(p_yy), p_xy=tuple(p_xy),
            verdicts=tuple(verdicts), residuals=tuple(residuals),
            strength_x=certified_strength([(p - c) / c for p, c in zip(p_xx, targets)], tol),
            strength_y=certified_strength([(p - c) / c for p, c in zip(p_yy, targets)], tol),
        ))

    aggregate = []
    unanimous = []
    max_residuals = []
    for i in range(t_max):
        per_sample = [r.verdicts[i] for r in records]
        kinds = set(per_sample)
        unanimous.append(len(kinds) == 1)
        if kinds == {"holds"}:
            aggregate.append("holds")
        elif kinds == {"degenerate"}:
            aggregate.append("degenerate")
        elif kinds == {"fails"}:
            aggregate.append("fails")
        else:
            aggregate.append("indeterminate")
        seen = [r.residuals[i] for r in records if r.residuals[i] is not None]
        max_residuals.append(max(seen) if seen else None)

    # degenerate f at t is only consistent when both sampled orbits are
    # themselves (t,t)-designs; anything else is a numerical contradiction
    for r in records:
        for i, v in enumerate(r.verdicts):
            if v == "degenerate" and min(r.strength_x, r.strength_y) < i + 1:
                raise ConsistencyError(
                    f"f vanished at t={i + 1} but a sampled orbit has "
                    f"strength {min(r.strength_x, r.strength_y)}")

    t_generic = Counter(r.strength_x for r in records).most_common(1)[0][0]
    lo = t_generic + 1
    hi = lo - 1
    while hi + 1 <= t_max and aggregate[hi] == "holds":
        hi += 1
    t_pairs = (lo, hi) if hi >= lo else None
    return PairScanReport(
        group_label=group.spec.label, t_max=t_max, samples=samples, seed=seed,
        verdicts=tuple(aggregate), unanimous=tuple(unanimous),
        max_residuals=tuple(max_residuals), t_generic=t_generic,
        t_pairs=t_pairs, sample_records=tuple(records),
    )
