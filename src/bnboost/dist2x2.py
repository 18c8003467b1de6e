"""Exact arithmetic on 2x2 joint distributions of a pair of binary variables.

All information quantities are in nats. Cell (a, b) holds P(A=a, B=b); the
flat order is (p00, p01, p10, p11). The correlation-offset parameterization
that beta.beta_mc samples in maps (pA0, pB0, t) to

    p00 = pA0*pB0 + t      p01 = pA0*(1-pB0) - t
    p10 = (1-pA0)*pB0 - t  p11 = (1-pA0)*(1-pB0) + t

which keeps both marginals fixed for every admissible t and sweeps the whole
simplex as (pA0, pB0, t) varies. The map has unit Jacobian onto the simplex
coordinates (p00, p01, p10), which the Monte Carlo integrator relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "JointDist2x2",
    "SupportError",
    "mutual_information",
    "kl_divergence",
    "mi_from_counts",
    "mi_from_counts_batch",
    "uniform_marginal_dist",
    "find_t_plus",
    "find_t_plus_batch",
    "reference_dist",
]

SUM_TOL = 1e-12
MI_UPPER = math.log(2.0)  # sup of MI over uniform-marginal 2x2 distributions
T_PLUS_TOL = 1e-12  # |MI - eta| at which find_t_plus stops bisecting
T_PLUS_STEPS = 200  # bisection step cap


class SupportError(ValueError):
    """KL divergence is undefined: p puts mass where q has none."""


@dataclass(frozen=True)
class JointDist2x2:
    """Joint distribution of two binary variables; cells sum to 1, all >= 0."""

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        cells = (self.p00, self.p01, self.p10, self.p11)
        if any(c < 0.0 or math.isnan(c) for c in cells):
            raise ValueError(f"negative or NaN cell in {cells}")
        if abs(sum(cells) - 1.0) > SUM_TOL:
            raise ValueError(f"cells sum to {sum(cells)!r}, not 1")

    @property
    def cells(self) -> tuple[float, float, float, float]:
        return (self.p00, self.p01, self.p10, self.p11)


def uniform_marginal_dist(t: float) -> JointDist2x2:
    """The uniform-marginal path (1/4+t, 1/4-t, 1/4-t, 1/4+t); |t| < 1/4.

    t = 0 is allowed here (the uniform distribution itself)."""
    if not (-0.25 < t < 0.25):
        raise ValueError(f"t={t!r} outside (-1/4, 1/4)")
    return JointDist2x2(0.25 + t, 0.25 - t, 0.25 - t, 0.25 + t)


def mutual_information(p: JointDist2x2) -> float:
    """MI of the pair in nats, with 0*log(0) = 0. Clamped at 0 from below."""
    pa = (p.p00 + p.p01, p.p10 + p.p11)
    pb = (p.p00 + p.p10, p.p01 + p.p11)
    s = 0.0
    for (a, b), pij in zip(((0, 0), (0, 1), (1, 0), (1, 1)), p.cells):
        if pij > 0.0:
            s += pij * math.log(pij / (pa[a] * pb[b]))
    # float rounding can leave s at -1e-17 for (near-)product distributions
    return s if s > 0.0 else 0.0


def kl_divergence(p: JointDist2x2, q: JointDist2x2) -> float:
    """KL(p || q) in nats, 0*log(0) = 0; raises SupportError if p !<< q."""
    s = 0.0
    for pij, qij in zip(p.cells, q.cells):
        if pij > 0.0:
            if qij <= 0.0:
                raise SupportError(
                    f"p has mass {pij!r} on a cell where q is zero"
                )
            s += pij * math.log(pij / qij)
    return s if s > 0.0 else 0.0


def mi_from_counts(c00: int, c01: int, c10: int, c11: int) -> float:
    """Empirical MI (nats) of a 2x2 contingency table of nonnegative counts.

    Computed as sum(c * ln(c*n / (row*col))) / n. All products stay integral,
    so product tables (c00*c11 == c01*c10) give exactly 0.0, which matters for
    threshold tests at gamma = 0.
    """
    n = c00 + c01 + c10 + c11
    if n == 0:
        raise ValueError("empty contingency table")
    r0 = c00 + c01
    r1 = c10 + c11
    k0 = c00 + c10
    k1 = c01 + c11
    s = 0.0
    if c00 > 0:
        s += c00 * math.log(c00 * n / (r0 * k0))
    if c01 > 0:
        s += c01 * math.log(c01 * n / (r0 * k1))
    if c10 > 0:
        s += c10 * math.log(c10 * n / (r1 * k0))
    if c11 > 0:
        s += c11 * math.log(c11 * n / (r1 * k1))
    mi = s / n
    return mi if mi > 0.0 else 0.0


def mi_from_counts_batch(c00, c01, c10, c11) -> np.ndarray:
    """mi_from_counts of every table (c00[i], c01[i], c10[i], c11[i]) of
    integer arrays at once. The products stay integral here too, so product
    tables give exactly 0.0; an empty table gives 0.0 instead of raising."""
    n = c00 + c01 + c10 + c11
    r0 = c00 + c01
    r1 = c10 + c11
    k0 = c00 + c10
    k1 = c01 + c11
    s = np.zeros(n.shape, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, r, k in ((c00, r0, k0), (c01, r0, k1), (c10, r1, k0), (c11, r1, k1)):
            num = (c * n).astype(np.float64)
            den = (r * k).astype(np.float64)
            s += np.where(c > 0, c * np.log(np.where(c > 0, num / den, 1.0)), 0.0)
    mi = np.divide(s, n, out=np.zeros(n.shape), where=n > 0)
    return np.maximum(mi, 0.0)


def _mi_on_path(t: np.ndarray) -> np.ndarray:
    """MI of the uniform-marginal distribution at offsets t >= 0, in closed
    form: (1/2+2t) ln(1+4t) + (1/2-2t) ln(1-4t)."""
    x = 4.0 * t
    return 0.5 * ((1.0 + x) * np.log1p(x) + (1.0 - x) * np.log1p(-x))


def find_t_plus_batch(etas) -> np.ndarray:
    """find_t_plus of every element of etas, bisected in lockstep.

    Each element takes the same decisions as its own bisection would and
    keeps the first midpoint within T_PLUS_TOL, so the result does not
    depend on which other elements share the call.
    """
    eta = np.asarray(etas, dtype=np.float64)
    bad = ~((eta > 0.0) & (eta < MI_UPPER))
    if bad.any():
        raise ValueError(f"eta={float(eta[bad].flat[0])!r} outside (0, ln 2)")
    lo = np.zeros(eta.shape)
    hi = np.full(eta.shape, 0.25)
    t = np.full(eta.shape, 0.125)
    active = np.ones(eta.shape, dtype=bool)
    for _ in range(T_PLUS_STEPS):
        mid = 0.5 * (lo + hi)
        np.copyto(t, mid, where=active)
        m = _mi_on_path(mid)
        active &= np.abs(m - eta) > T_PLUS_TOL
        if not active.any():
            break
        below = m < eta
        np.copyto(lo, mid, where=below)
        np.copyto(hi, mid, where=~below)
    return t


def find_t_plus(eta: float) -> float:
    """Positive offset t with MI(uniform-marginal dist at t) = eta.

    MI is strictly increasing on (0, 1/4) with range (0, ln 2), so the root
    is unique; located by bisection to |MI - eta| <= T_PLUS_TOL. A scalar
    call of find_t_plus_batch.
    """
    return float(find_t_plus_batch(eta))


def reference_dist(eta: float) -> JointDist2x2:
    """Uniform-marginal distribution with MI = eta (positive-offset branch)."""
    return uniform_marginal_dist(find_t_plus(eta))
