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

__all__ = [
    "JointDist2x2",
    "SupportError",
    "mutual_information",
    "kl_divergence",
    "mi_from_counts",
    "uniform_marginal_dist",
    "find_t_plus",
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

    def marginal_a(self) -> tuple[float, float]:
        return (self.p00 + self.p01, self.p10 + self.p11)

    def marginal_b(self) -> tuple[float, float]:
        return (self.p00 + self.p10, self.p01 + self.p11)


def uniform_marginal_dist(t: float) -> JointDist2x2:
    """The uniform-marginal path (1/4+t, 1/4-t, 1/4-t, 1/4+t); |t| < 1/4.

    t = 0 is allowed here (the uniform distribution itself)."""
    if not (-0.25 < t < 0.25):
        raise ValueError(f"t={t!r} outside (-1/4, 1/4)")
    return JointDist2x2(0.25 + t, 0.25 - t, 0.25 - t, 0.25 + t)


def mutual_information(p: JointDist2x2) -> float:
    """MI of the pair in nats, with 0*log(0) = 0. Clamped at 0 from below."""
    pa = p.marginal_a()
    pb = p.marginal_b()
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


def _mi_on_path(t: float) -> float:
    """MI of the uniform-marginal distribution at offset t, in closed form."""
    if t == 0.0:
        return 0.0
    x = 4.0 * abs(t)
    # MI = (1/2+2|t|) ln(1+4|t|) + (1/2-2|t|) ln(1-4|t|); even in t
    return 0.5 * ((1.0 + x) * math.log1p(x) + (1.0 - x) * math.log1p(-x))


def find_t_plus(eta: float) -> float:
    """Positive offset t with MI(uniform-marginal dist at t) = eta.

    MI is strictly increasing on (0, 1/4) with range (0, ln 2), so the root
    is unique; located by bisection to |MI - eta| <= T_PLUS_TOL.
    """
    if not (0.0 < eta < MI_UPPER):
        raise ValueError(f"eta={eta!r} outside (0, ln 2)")
    lo, hi = 0.0, 0.25
    t = 0.125
    for _ in range(T_PLUS_STEPS):
        t = 0.5 * (lo + hi)
        m = _mi_on_path(t)
        if abs(m - eta) <= T_PLUS_TOL:
            return t
        if m < eta:
            lo = t
        else:
            hi = t
    return t


def reference_dist(eta: float) -> JointDist2x2:
    """Uniform-marginal distribution with MI = eta (positive-offset branch)."""
    return uniform_marginal_dist(find_t_plus(eta))
