"""Type II error of the mutual-information independence test.

beta(N, gamma, ref) is the probability, under N i.i.d. draws from the
dependent reference distribution ref, that the empirical MI falls at or
below the threshold gamma, i.e. that the test wrongly looks independent.

Three routes are provided, in increasing applicability:
  beta_bruteforce  enumerates all 4^N raw sequences, N <= 8 (oracle)
  beta_exact       sums over type classes with multinomial weights, walked
                   by their margins (r0, c0) and, by Pinsker's inequality,
                   only over the band |t00 - r0*c0/N| <= N*sqrt(gamma/8);
                   cost grows ~N^3 with N; log-factorials from math.lgamma;
                   only the weights and MIs of a batch's types span the
                   batch, the rest works in sub-ranges of about 2^14 types
  beta_mc          importance-sampled Monte Carlo estimate of the continuous
                   relaxation of the type sum, cost independent of N; the
                   draws are weighted in cache-sized blocks of samples

BetaTable precomputes -ln(beta) on an (N, gamma) grid for one eta so that
scoring can answer interpolated queries cheaply, a whole array of them per
neg_ln_beta_batch call. A build's Monte Carlo cells share one set of draw,
weight and block arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import check_count, derived_seed, is_integer, json_field, load_json
from .dist2x2 import (
    JointDist2x2,
    MI_UPPER,
    find_t_plus,
    find_t_plus_batch,
    mi_from_counts,
    mi_from_counts_batch,
    reference_dist,
)

__all__ = [
    "BetaTable",
    "EffectiveSampleSizeError",
    "TableBuildError",
    "beta_bruteforce",
    "beta_exact",
    "beta_mc",
    "beta_product_mass",
    "build_table",
    "neg_ln_beta_batch",
    "query_neg_ln_beta",
    "table_to_json",
    "save_table",
    "load_table",
    "DEFAULT_N_GRID",
    "default_gamma_grid",
]

DEFAULT_N_GRID = (20, 50, 100, 200, 500, 1000, 2000, 5000, 10000)
DEFAULT_GAMMA_POINTS = 12  # positive thresholds of default_gamma_grid
EXACT_CAP = 200  # table cells use the type sum up to here, MC beyond
BETA_EXACT_MAX_N = 2000
ESS_FLOOR = 100.0  # beta_mc fails below this effective sample size
BRUTE_MAX_N = 8
ETA_CONJECTURE_LIMIT = 0.11  # proposal centering is only validated below this
_BATCH_ELEMENTS = 1 << 19  # band slots per batch of the exact margin walk
_SUB_ELEMENTS = 1 << 14  # types per cache-sized sub-range of a batch
_MC_BLOCK = 8192  # beta_mc samples per block, sized to stay in cache


class EffectiveSampleSizeError(RuntimeError):
    """Importance-sampling weights collapsed; the proposal is badly tuned."""


class TableBuildError(RuntimeError):
    """A table cell failed; message carries the (N, gamma) coordinates."""


def default_gamma_grid(eta: float) -> list[float]:
    """{0} plus DEFAULT_GAMMA_POINTS geometric thresholds in [eta/1000, 0.9*eta]."""
    return [0.0] + [float(g) for g in
                    np.geomspace(eta / 1000.0, 0.9 * eta, DEFAULT_GAMMA_POINTS)]


def _validate(n: int, ref: JointDist2x2, gamma: float = 0.0) -> None:
    """What the exact routes check on entry: gamma finite and >= 0, n an
    integer >= 1 and ref strictly positive."""
    if not math.isfinite(gamma):
        raise ValueError(f"gamma={gamma!r} must be finite")
    if gamma < 0.0:
        raise ValueError(f"gamma={gamma!r} must be >= 0")
    check_count("n", n, 1)
    if min(ref.cells) <= 0.0:
        raise ValueError("reference distribution must be strictly positive")


# ---------------------------------------------------------------------------
# exact computation by summing over type classes
# ---------------------------------------------------------------------------

def _runs(counts: np.ndarray):
    """(run, position in run) of each element of consecutive runs of the
    given lengths."""
    run = np.repeat(np.arange(counts.size), counts)
    return run, np.arange(run.size) - (np.cumsum(counts) - counts)[run]


def _log_factorials(n: int) -> np.ndarray:
    """ln(k!) for k = 0..n."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def _type_weights(lgf: np.ndarray, ref: JointDist2x2, t00, r0, c0):
    """Cells (t00, t01, t10, t11) of the types of length n with top-left
    count t00, first-row sum r0 and first-column sum c0, and the
    multinomial probability of each under ref; lgf = _log_factorials(n)."""
    n = lgf.size - 1
    t01, t10 = r0 - t00, c0 - t00
    t11 = n - r0 - c0 + t00
    lnp = np.log(np.asarray(ref.cells))
    logw = (
        lgf[n]
        - lgf[t00] - lgf[t01] - lgf[t10] - lgf[t11]
        + t00 * lnp[0] + t01 * lnp[1] + t10 * lnp[2] + t11 * lnp[3]
    )
    return (t00, t01, t10, t11), np.exp(logw)


def _beta_exact_multi(n: int, gammas, ref: JointDist2x2) -> np.ndarray:
    """beta(n, gamma, ref) for several gammas from one walk over the margins.

    By Pinsker's inequality MI <= gamma forces |t00 - r0*c0/n| <= n*sqrt(gamma/8),
    so for each margin pair (r0, c0) only the t00 in that band are visited;
    the MI test then decides each of them. The pairs go in batches of up to
    _BATCH_ELEMENTS band slots; only the weights and MIs of a batch's types
    span the batch, filled one sub-range of about _SUB_ELEMENTS types at a
    time, so each gamma sums the same arrays in the same order at any size.
    """
    gam = np.asarray(gammas, dtype=np.float64)
    half = n * math.sqrt(gam.max() / 8.0) * (1.0 + 1e-9)  # slack for rounding
    rows = max(1, _BATCH_ELEMENTS // ((n + 1) * (min(n, int(2 * half)) + 1)))
    acc = np.zeros(gam.shape, dtype=np.float64)
    lgf = _log_factorials(n)
    for lo in range(0, n + 1, rows):
        pairs = np.arange(lo * (n + 1), min(lo + rows, n + 1) * (n + 1))
        r0, c0 = np.divmod(pairs, n + 1)
        center = r0 * c0 / n
        t_lo = np.maximum(np.ceil(center - half), np.maximum(r0 + c0 - n, 0))
        t_hi = np.minimum(np.floor(center + half), np.minimum(r0, c0))
        counts = np.maximum(t_hi - t_lo + 1, 0).astype(np.int64)
        t_lo = t_lo.astype(np.int64)
        off = np.concatenate(([0], np.cumsum(counts)))  # each pair's first type
        w = np.empty(off[-1])
        mi = np.empty(off[-1])
        # a sub-range starts at the first pair at or past each multiple of
        # _SUB_ELEMENTS types
        cuts = np.searchsorted(off, np.arange(0, off[-1], _SUB_ELEMENTS)).tolist()
        for a, b in zip(cuts, cuts[1:] + [counts.size]):
            run, k = _runs(counts[a:b])
            cells, w[off[a]:off[b]] = _type_weights(
                lgf, ref, t_lo[a:b][run] + k, r0[a:b][run], c0[a:b][run]
            )
            mi[off[a]:off[b]] = mi_from_counts_batch(*cells)
        for j, g in enumerate(gam):
            acc[j] += w[mi <= g].sum()
    return np.minimum(acc, 1.0)


def beta_exact(n: int, gamma: float, ref: JointDist2x2) -> float:
    """Exact Type II error by summation over all types of length n.

    Cost grows cubically in n; n above BETA_EXACT_MAX_N is rejected.
    """
    _validate(n, ref, gamma)
    if n > BETA_EXACT_MAX_N:
        raise ValueError(f"n={n} above the exact-computation cap {BETA_EXACT_MAX_N}")
    return float(_beta_exact_multi(n, [gamma], ref)[0])


def beta_bruteforce(n: int, gamma: float, ref: JointDist2x2) -> float:
    """Oracle: sum sequence probabilities over all 4^n raw sequences."""
    _validate(n, ref, gamma)
    if n > BRUTE_MAX_N:
        raise ValueError(f"n={n} outside 1..{BRUTE_MAX_N}")
    cells = ref.cells
    total = 0.0
    for seq in itertools.product(range(4), repeat=n):
        c = [0, 0, 0, 0]
        pr = 1.0
        for sym in seq:
            c[sym] += 1
            pr *= cells[sym]
        if mi_from_counts(c[0], c[1], c[2], c[3]) <= gamma:
            total += pr
    return min(total, 1.0)


def beta_product_mass(n: int, ref: JointDist2x2) -> float:
    """Exact beta at gamma = 0: total probability of product-form types.

    A type is product iff t00 = r0*c0/n, which is an integer exactly when
    c0 is a multiple of n / gcd(r0, n); the sum visits only those
    gcd(r0, n) + 1 lattice points per row margin r0.
    """
    _validate(n, ref)
    r0 = np.arange(n + 1)
    step = n // np.gcd(r0, n)
    run, k = _runs(n // step + 1)
    c0 = k * step[run]
    _, w = _type_weights(_log_factorials(n), ref, r0[run] * c0 // n, r0[run], c0)
    return min(float(w.sum()), 1.0)


# ---------------------------------------------------------------------------
# Monte Carlo with importance sampling
# ---------------------------------------------------------------------------

def _sigma_marginal(n: int) -> float:
    return max(0.02, 0.5 / math.sqrt(n))


def _log_path_integrand(t: np.ndarray, n: int, ln_ref: np.ndarray) -> np.ndarray:
    """log of exp(-n*KL(p0(t)||ref)) * prod(cells)^(-1/2) along the
    uniform-marginal path."""
    cells = np.stack([0.25 + t, 0.25 - t, 0.25 - t, 0.25 + t])
    kl = (cells * (np.log(cells) - ln_ref[:, None])).sum(axis=0)
    return -n * kl - 0.5 * np.log(cells).sum(axis=0)


def _sigma_t(n: int, t_gamma: float, ln_ref: np.ndarray) -> float:
    """Width of the integrand peak next to the acceptance boundary.

    Scans 64 points on (0, t_gamma) and measures how far the integrand
    stays within e^{-1/2} of its maximum. The result is never taken below
    1/(4*sqrt(n)), the t-direction curvature scale of exp(-n*KL), or below
    1e-4: a narrower Gaussian proposal has lighter tails than the integrand
    and its importance weights lose finite variance.
    """
    ts = t_gamma * np.arange(1, 65) / 65.0
    logf = _log_path_integrand(ts, n, ln_ref)
    top = int(np.argmax(logf))
    above = np.nonzero(logf >= logf[top] - 0.5)[0]
    width = float(ts[top] - ts[int(above[0])])
    return max(width, 0.25 / math.sqrt(n), 1e-4)


class _McWork:
    """What the Monte Carlo cells of one table build share: the logs of the
    reference cells, t_gamma per gamma, and the arrays every beta_mc call
    overwrites. The draw and weight arrays follow the call's sample count;
    the block arrays hold _MC_BLOCK samples each."""

    def __init__(self, ref: JointDist2x2, t_of: dict):
        self.ln_ref = np.log(np.asarray(ref.cells))[:, None]
        self.t_of = t_of  # gamma -> t_gamma
        self.z = np.empty((3, 0))
        self.w = np.empty(0)
        self.p = np.empty((3, _MC_BLOCK))  # pa, pb, tt
        self.q = np.empty((4, _MC_BLOCK))  # cells of the drawn distributions
        self.lnq = np.empty((4, _MC_BLOCK))
        self.denom = np.empty((4, _MC_BLOCK))  # cells of the margins' product
        self.tmp = np.empty((4, _MC_BLOCK))
        self.marg = np.empty((2, 2, _MC_BLOCK))  # (a, 1 - a), (b, 1 - b)
        self.vec = np.empty((3, _MC_BLOCK))  # log proposal density, mi, log integrand
        self.ok = np.empty((4, _MC_BLOCK), dtype=bool)

    def draws(self, samples: int, seed: int):
        """The (3, samples) standard normal draws of seed, and a weight array."""
        if self.w.size != samples:
            self.z = np.empty((3, samples))
            self.w = np.empty(samples)
        np.random.default_rng(seed).standard_normal(out=self.z)
        return self.z, self.w


def _product_cells(marg: np.ndarray, out: np.ndarray) -> None:
    """Cells (a*b, a*(1-b), (1-a)*b, (1-a)*(1-b)) into out, shape (4, k), for
    the margins a = marg[0, 0] and b = marg[1, 0]; fills marg[:, 1] with
    1 - a and 1 - b on the way."""
    np.subtract(1, marg[:, 0], out=marg[:, 1])
    np.multiply(marg[0, :, None], marg[1, None, :], out=out.reshape(2, 2, -1))


def beta_mc(
    n: int,
    gamma: float,
    eta: float,
    samples: int = 100_000,
    seed: int = 0,
    *,
    _work: _McWork | None = None,
) -> float:
    """Importance-sampled estimate of beta(n, gamma) against the eta reference.

    Estimates (n/2pi)^(3/2) * integral over the simplex of
    exp(-n*KL(q||ref)) * prod(q)^(-1/2) * 1[MI(q) <= gamma] dq, the
    continuous relaxation of the type sum. Proposal: both marginals from a
    Gaussian at 1/2 with width max(0.02, 1/(2*sqrt(n))), offset t from a
    Gaussian at t_gamma with width measured from the integrand peak. The
    (pA0, pB0, t) chart has unit Jacobian, so no volume correction appears.
    Deterministic given seed; raises EffectiveSampleSizeError when the
    effective sample size falls below ESS_FLOOR. build_table passes _work
    so that its cells share one set of arrays; it does not change the result.
    """
    check_count("samples", samples, 1)
    check_count("seed", seed, 0)
    if not (0.0 < eta < MI_UPPER):
        raise ValueError(f"eta={eta!r} outside (0, ln 2)")
    if not (0.0 < gamma < eta):
        raise ValueError(
            f"gamma={gamma!r} must lie in (0, eta); the gamma=0 acceptance "
            "region has measure zero, use beta_product_mass instead"
        )
    check_count("n", n, 1)

    work = _work
    if work is None:
        work = _McWork(reference_dist(eta), {gamma: find_t_plus(gamma)})
    t_gamma = work.t_of[gamma]
    sm = _sigma_marginal(n)
    st = _sigma_t(n, t_gamma, work.ln_ref[:, 0])
    # the Gaussian proposal's mean, width and log normaliser for (pa, pb, tt)
    mu = np.array([[0.5], [0.5], [t_gamma]])
    sigma = np.array([[sm], [sm], [st]])
    log_norm = np.array([[math.log(s * math.sqrt(2 * math.pi))] for s in (sm, sm, st)])
    log_scale = 1.5 * math.log(n / (2 * math.pi))

    # the stream of three rng.normal(loc, scale, samples) calls, one block of
    # samples at a time; w collects the weights of the valid draws in order.
    # Each step writes into the work arrays but keeps the operations, and
    # their order, of the unblocked estimator (the tests' mc_reference), so
    # every weight has the same bits.
    z, w = work.draws(samples, seed)
    m = 0
    for lo in range(0, samples, _MC_BLOCK):
        zb = z[:, lo:lo + _MC_BLOCK]
        k = zb.shape[1]
        p, q, ok = work.p[:, :k], work.q[:, :k], work.ok[:, :k]
        np.multiply(zb, sigma, out=p)
        np.add(p, mu, out=p)  # pa = 0.5 + sm*z0, pb = 0.5 + sm*z1, tt = t_gamma + st*z2
        marg = work.marg[:, :, :k]
        np.copyto(marg[:, 0], p[:2])
        _product_cells(marg, q)
        np.add(q[0::3], p[2], out=q[0::3])
        np.subtract(q[1:3], p[2], out=q[1:3])
        np.greater(q, 0.0, out=ok)
        valid = ok.all(axis=0)
        if not valid.all():
            k = int(np.count_nonzero(valid))
            p[:, :k] = p[:, valid]
            q[:, :k] = q[:, valid]
            p, q, ok, marg = p[:, :k], q[:, :k], ok[:, :k], marg[:, :, :k]
        log_g, mi, log_f = work.vec[:, :k]
        lnq, denom, tmp = work.lnq[:, :k], work.denom[:, :k], work.tmp[:, :k]

        # log_g = sum over (pa, pb, tt) of -0.5*((x - mu)/sigma)**2 - log_norm
        d = tmp[:3]
        np.subtract(p, mu, out=d)
        np.divide(d, sigma, out=d)
        np.square(d, out=d)
        np.multiply(d, -0.5, out=d)
        np.subtract(d, log_norm, out=d)
        np.add(d[0], d[1], out=log_g)
        np.add(log_g, d[2], out=log_g)

        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(q, out=lnq)
            np.add(q[0], q[1:3], out=marg[:, 0])  # row and column margins
            _product_cells(marg, denom)
            np.log(denom, out=denom)
            np.subtract(lnq, denom, out=denom)
            np.multiply(q, denom, out=denom)
            denom.sum(axis=0, out=mi)  # sum of q*ln(q/denom)
            np.subtract(lnq, work.ln_ref, out=tmp)
            np.multiply(q, tmp, out=tmp)
            tmp.sum(axis=0, out=log_f)  # KL(q||ref)
            np.multiply(log_f, n, out=log_f)
            np.subtract(log_scale, log_f, out=log_f)
            lnq_sum = lnq.sum(axis=0, out=tmp[0])
            np.multiply(lnq_sum, 0.5, out=lnq_sum)
            np.subtract(log_f, lnq_sum, out=log_f)  # log integrand

        np.subtract(log_f, log_g, out=log_f)
        wb = w[m:m + k]
        np.exp(log_f, out=wb)
        rejected = ok[0]
        np.less_equal(mi, gamma, out=rejected)
        np.logical_not(rejected, out=rejected)
        np.copyto(wb, 0.0, where=rejected)
        m += k
    w = w[:m]

    wsum = float(w.sum())
    wsq = float(np.multiply(w, w, out=z[0, :m]).sum())  # the draws are spent
    ess = wsum * wsum / wsq if wsq > 0.0 else 0.0
    if ess < ESS_FLOOR:
        raise EffectiveSampleSizeError(
            f"effective sample size {ess:.1f} below floor {ESS_FLOOR:g} "
            f"at n={n}, gamma={gamma!r}, eta={eta!r}"
        )
    return min(wsum / samples, 1.0)


# ---------------------------------------------------------------------------
# precomputed table with interpolation
# ---------------------------------------------------------------------------

def _check_grids(eta: float, N_grid, gamma_grid) -> None:
    if not N_grid or not gamma_grid:
        raise ValueError("grids must be nonempty")
    if not all(map(is_integer, N_grid)):
        raise ValueError(f"N_grid {list(N_grid)} must hold integers")
    if any(b <= a for a, b in zip(N_grid, N_grid[1:])) or N_grid[0] < 1:
        raise ValueError(f"N_grid {list(N_grid)} must ascend from >= 1")
    if not all(map(math.isfinite, gamma_grid)):
        raise ValueError(f"gamma_grid {list(gamma_grid)} must be finite")
    if any(b <= a for a, b in zip(gamma_grid, gamma_grid[1:])):
        raise ValueError(f"gamma_grid {list(gamma_grid)} must be ascending")
    if gamma_grid[0] < 0.0 or gamma_grid[-1] >= eta:
        raise ValueError(f"gamma_grid {list(gamma_grid)} must lie in [0, {eta!r})")


@dataclass
class BetaTable:
    """-ln(beta) over an (N, gamma) grid for one eta, plus the KL coordinate
    H(p_gamma || p_eta) per gamma used for interpolation, derived from
    (eta, gamma_grid)."""

    eta: float
    N_grid: list[int]
    gamma_grid: list[float]
    neg_ln_beta: np.ndarray  # shape (len(N_grid), len(gamma_grid))
    kl_of_gamma: list[float] = field(init=False)
    mc_samples: int
    seed: int
    _n_axis: np.ndarray = field(init=False, repr=False)
    _kl_axis: np.ndarray = field(init=False, repr=False)
    _cols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_grids(self.eta, self.N_grid, self.gamma_grid)
        self.neg_ln_beta = np.asarray(self.neg_ln_beta, dtype=np.float64)
        if self.neg_ln_beta.shape != (len(self.N_grid), len(self.gamma_grid)):
            raise ValueError("neg_ln_beta shape does not match the grids")
        if not (np.isfinite(self.neg_ln_beta) & (self.neg_ln_beta >= 0)).all():
            raise ValueError("neg_ln_beta entries must be finite and >= 0")
        self.kl_of_gamma = _kl_of_gammas(self.gamma_grid, self.eta).tolist()
        # interpolation axis: ascending KL, i.e. gamma descending, with a
        # virtual boundary column (kl=0 -> 0 boost) for continuity at eta
        kl = np.asarray(self.kl_of_gamma)[::-1]
        cols = self.neg_ln_beta[:, ::-1]
        if kl[0] > 0.0:
            kl = np.concatenate(([0.0], kl))
            cols = np.concatenate((np.zeros((cols.shape[0], 1)), cols), axis=1)
        self._n_axis = np.asarray(self.N_grid, dtype=np.float64)
        self._kl_axis = kl
        self._cols = cols


def _kl_of_gammas(gammas, eta: float) -> np.ndarray:
    """H(p_gamma || p_eta) for each gamma in [0, eta), where p_g is the
    uniform-marginal distribution with MI g; one find_t_plus_batch call
    finds the offsets of the positive gammas and of eta together."""
    g = np.append(np.asarray(gammas, dtype=np.float64), eta)
    t = np.zeros(g.shape)
    t[g > 0.0] = find_t_plus_batch(g[g > 0.0])
    t, t_eta = t[:-1], t[-1]
    kl = np.zeros(t.shape)
    for sign in (1.0, -1.0, -1.0, 1.0):  # cells p00, p01, p10, p11
        p = 0.25 + sign * t
        kl += p * np.log(p / (0.25 + sign * t_eta))
    return np.maximum(kl, 0.0)


def _segment(xs: np.ndarray, x: np.ndarray):
    """Knots (j0, j1) of the piece of the ascending axis xs that gives the
    value at x, with x - xs[j0] and xs[j1] - xs[j0]. Interior points fall
    in their own piece; outside, the end piece extrapolates linearly."""
    if xs.size == 1:
        j = np.zeros(x.shape, dtype=np.intp)
        return j, j, np.zeros(x.shape), np.ones(x.shape)
    j1 = np.clip(np.searchsorted(xs, x), 1, xs.size - 1)
    j0 = j1 - 1
    return j0, j1, x - xs[j0], xs[j1] - xs[j0]


def neg_ln_beta_batch(table: BetaTable, ns, gammas) -> np.ndarray:
    """Interpolated -ln(beta) at every (ns[i], gammas[i]); 0 where gamma >= eta.

    Bilinear in the coordinates (N, H(p_gamma||p_eta)); linear extrapolation
    in N outside the grid; clamped at 0 from below.
    """
    ns, gammas = np.broadcast_arrays(
        np.asarray(ns, dtype=np.float64), np.asarray(gammas, dtype=np.float64)
    )
    if not (ns >= 1).all():
        raise ValueError(f"n={ns[~(ns >= 1)][0]:g} must be >= 1")
    if not (gammas >= 0.0).all():
        raise ValueError(f"gamma={float(gammas[~(gammas >= 0.0)][0])!r} must be >= 0")
    out = np.zeros(ns.shape)
    below = gammas < table.eta
    kl = _kl_of_gammas(gammas[below], table.eta)
    n = ns[below]
    k0, k1, dk, sk = _segment(table._kl_axis, kl)
    r0, r1, dn, sn = _segment(table._n_axis, n)
    cols = table._cols
    v0 = cols[r0, k0] + (cols[r0, k1] - cols[r0, k0]) * dk / sk
    v1 = cols[r1, k0] + (cols[r1, k1] - cols[r1, k0]) * dk / sk
    out[below] = np.maximum(v0 + (v1 - v0) * dn / sn, 0.0)
    return out


def query_neg_ln_beta(table: BetaTable, n: int, gamma: float) -> float:
    """Interpolated -ln(beta) at (n, gamma): neg_ln_beta_batch of one element."""
    return float(neg_ln_beta_batch(table, n, gamma))


def build_table(
    eta: float,
    N_grid=None,
    gamma_grid=None,
    samples: int = 100_000,
    seed: int = 0,
) -> BetaTable:
    """Tabulate -ln(beta) over the (N, gamma) grid for one eta.

    Cells with N <= EXACT_CAP use the exact type sum, larger N the Monte
    Carlo estimate with a per-cell seed derived from (seed, row, column) so
    the result is independent of evaluation order. gamma = 0 cells always
    use the exact product-type sum: the continuous relaxation assigns the
    gamma = 0 acceptance region zero volume, so MC cannot see it. The MC
    cells share one set of draw, weight and block arrays and take t_gamma
    from one find_t_plus_batch call over the positive gammas.
    """
    if not (0.0 < eta < MI_UPPER):
        raise ValueError(f"eta={eta!r} outside (0, ln 2)")
    check_count("samples", samples, 1)
    check_count("seed", seed, 0)
    if eta > ETA_CONJECTURE_LIMIT:
        raise ValueError(
            f"eta={eta!r} above {ETA_CONJECTURE_LIMIT}; proposal centering is "
            "unvalidated there"
        )
    N_grid = list(DEFAULT_N_GRID) if N_grid is None else list(N_grid)
    gamma_grid = (
        default_gamma_grid(eta) if gamma_grid is None else [float(g) for g in gamma_grid]
    )
    _check_grids(eta, N_grid, gamma_grid)
    N_grid = [int(n) for n in N_grid]

    ref = reference_dist(eta)
    pos = [j for j, g in enumerate(gamma_grid) if g > 0.0]
    pos_gammas = [gamma_grid[j] for j in pos]
    work = _McWork(ref, dict(zip(pos_gammas, find_t_plus_batch(pos_gammas).tolist())))

    neg = np.zeros((len(N_grid), len(gamma_grid)))
    for i, n in enumerate(N_grid):
        betas = {}
        if n <= EXACT_CAP and pos:  # one margin walk for the row's positive gammas
            try:
                bs = _beta_exact_multi(n, pos_gammas, ref)
            except Exception as exc:
                raise TableBuildError(f"exact cells at N={n}: {exc}") from exc
            betas = dict(zip(pos, bs))
        for j, g in enumerate(gamma_grid):
            try:
                if g == 0.0:
                    betas[j] = beta_product_mass(n, ref)
                elif j not in betas:
                    cell_seed = derived_seed(seed, i, j)
                    betas[j] = beta_mc(n, g, eta, samples, cell_seed, _work=work)
            except Exception as exc:
                raise TableBuildError(f"cell N={n}, gamma={g!r}: {exc}") from exc
            neg[i, j] = max(0.0, -math.log(max(betas[j], 1e-300)))

    return BetaTable(
        eta=eta,
        N_grid=N_grid,
        gamma_grid=gamma_grid,
        neg_ln_beta=neg,
        mc_samples=samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# file format: UTF-8 JSON, floats with 17 significant digits
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def table_to_json(table: BetaTable) -> str:
    flat = table.neg_ln_beta.reshape(-1)  # row-major, N-major
    lines = [
        "{",
        f'  "eta": {_fmt(table.eta)},',
        f'  "mc_samples": {int(table.mc_samples)},',
        f'  "seed": {int(table.seed)},',
        f'  "N_grid": [{", ".join(str(int(n)) for n in table.N_grid)}],',
        f'  "gamma_grid": [{", ".join(_fmt(g) for g in table.gamma_grid)}],',
        f'  "kl_of_gamma": [{", ".join(_fmt(k) for k in table.kl_of_gamma)}],',
        f'  "neg_ln_beta": [{", ".join(_fmt(v) for v in flat)}]',
        "}",
    ]
    return "\n".join(lines) + "\n"


def _table_from_doc(doc) -> BetaTable:
    """The table of a parsed table_to_json document; kl_of_gamma is not read
    but recomputed. A document of another shape raises ValueError naming
    the key."""
    eta = json_field(doc, "eta", float, "beta table")
    N_grid = json_field(doc, "N_grid", list, "beta table", each=int)
    gamma_grid = json_field(doc, "gamma_grid", list, "beta table", each=float)
    cells = json_field(doc, "neg_ln_beta", list, "beta table", each=float)
    shape = (len(N_grid), len(gamma_grid))
    if len(cells) != shape[0] * shape[1]:
        raise ValueError(f"neg_ln_beta has {len(cells)} cells, not {shape}")
    mc_samples = json_field(doc, "mc_samples", int, "beta table")
    if mc_samples < 1:
        raise ValueError(f"beta table key 'mc_samples' holds {mc_samples}, below 1")
    seed = json_field(doc, "seed", int, "beta table")
    if seed < 0:
        raise ValueError(f"beta table key 'seed' holds {seed}, below 0")
    return BetaTable(
        eta=eta,
        N_grid=N_grid,
        gamma_grid=gamma_grid,
        neg_ln_beta=np.asarray(cells, dtype=np.float64).reshape(shape),
        mc_samples=mc_samples,
        seed=seed,
    )


def save_table(table: BetaTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table_to_json(table))


def load_table(path) -> BetaTable:
    """Read a save_table file; a malformed one raises ValueError naming it."""
    return load_json(path, _table_from_doc)
