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
T_PLUS_STEPS = 200  # cap on find_t_plus's Newton steps; 5e5 etas over (0, ln 2) took <= 10


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
    nonnegative arrays at once, integer counts or float masses (MI does not
    change with scale). For integer counts the products stay integral, so
    product tables give exactly 0.0; an empty table gives 0.0 instead of raising."""
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


def _mi_on_path(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MI of the uniform-marginal distribution at offsets t in [0, 1/4), and
    its slope 4 atanh(4t) in t. With x = 4t the MI is
    x atanh(x) + ln(1 - x^2)/2, which loses at most a bit to cancellation;
    ln(1 - x^2) is log1p(-x^2) below x = 1/2 and ln((1 - x)(1 + x)) above."""
    x = 4.0 * t
    a = np.arctanh(x)
    log_1mx2 = np.empty(x.shape)
    small = x < 0.5
    np.log1p(-x * x, out=log_1mx2, where=small)
    np.log((1.0 - x) * (1.0 + x), out=log_1mx2, where=~small)
    return x * a + 0.5 * log_1mx2, 4.0 * a


def find_t_plus_batch(etas) -> np.ndarray:
    """find_t_plus of every element of etas (any shape, 0-d included).

    MI(t) is increasing and convex on (0, 1/4), and MI(t) >= 8t^2 (every
    term of its series sum_k (4t)^(2k) / (2k(2k-1)) is positive), so Newton
    steps from t0 = min(sqrt(eta/8), the float below 1/4) fall monotonically
    onto the root from above. An element stops at the first step that no
    longer lowers its t: rounding, not a tolerance, ends it, within a few
    ulp of the root. Each element steps on its own values only, so the
    result does not depend on which other elements share the call.
    """
    eta = np.asarray(etas, dtype=np.float64)
    bad = ~((eta > 0.0) & (eta < MI_UPPER))
    if bad.any():
        raise ValueError(f"eta={float(eta[bad].flat[0])!r} outside (0, ln 2)")
    g = eta.reshape(-1)
    t = np.minimum(np.sqrt(g / 8.0), math.nextafter(0.25, 0.0))
    idx = np.arange(g.size)
    for _ in range(T_PLUS_STEPS):
        ti = t[idx]
        mi, slope = _mi_on_path(ti)
        new = ti - (mi - g[idx]) / slope
        lower = new < ti
        idx = idx[lower]
        if idx.size == 0:
            break
        t[idx] = new[lower]
    return t.reshape(eta.shape)


def find_t_plus(eta: float) -> float:
    """Positive offset t with MI(uniform-marginal dist at t) = eta.

    MI is strictly increasing on (0, 1/4) with range (0, ln 2), so the root
    is unique; Newton's method finds it to a few ulp relative. A scalar call
    of find_t_plus_batch.
    """
    return float(find_t_plus_batch(eta))


def reference_dist(eta: float) -> JointDist2x2:
    """Uniform-marginal distribution with MI = eta (positive-offset branch)."""
    return uniform_marginal_dist(find_t_plus(eta))
