import json
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from bnboost.dist2x2 import (
    MI_UPPER,
    JointDist2x2,
    find_t_plus,
    find_t_plus_batch,
    mi_from_counts,
    mi_from_counts_batch,
    mutual_information,
    reference_dist,
    uniform_marginal_dist,
)
from bnboost.beta import (
    ESS_FLOOR,
    _MC_BLOCK,
    BetaTable,
    EffectiveSampleSizeError,
    TableBuildError,
    beta_bruteforce,
    beta_exact,
    beta_mc,
    beta_product_mass,
    build_table,
    default_gamma_grid,
    load_table,
    neg_ln_beta_batch,
    query_neg_ln_beta,
    save_table,
    table_to_json,
)
from bnboost import beta as beta_module
from bnboost.beta import (
    _BATCH_ELEMENTS,
    _beta_exact_multi,
    _log_factorials,
    _runs,
    _sigma_marginal,
    _sigma_t,
    _table_from_doc,
    _type_weights,
)

ETA = 0.01
T_PLUS_TOL = 1e-12  # |MI - eta| every find_t_plus result must meet


def exact_reference(n, gamma, ref):
    """Oracle: beta as a plain triple loop over every type of length n."""
    lnp = [math.log(p) for p in ref.cells]
    total = 0.0
    for t00 in range(n + 1):
        for t01 in range(n + 1 - t00):
            for t10 in range(n + 1 - t00 - t01):
                t = (t00, t01, t10, n - t00 - t01 - t10)
                if mi_from_counts(*t) <= gamma:
                    total += math.exp(
                        math.lgamma(n + 1)
                        - sum(math.lgamma(c + 1) for c in t)
                        + sum(c * lp for c, lp in zip(t, lnp))
                    )
    return min(total, 1.0)


# ----------------------------------------------------------------- brute force

def test_bruteforce_two_sample_formula():
    # with 2 samples only the two anti/diagonal types have MI > 0, giving
    # beta(2, 0) = 1 - 2(1/4+t)^2 - 2(1/4-t)^2 = 3/4 - 4t^2
    for t in (0.0, 0.05, 0.1, 0.2):
        p = uniform_marginal_dist(t)
        assert beta_bruteforce(2, 0.0, p) == pytest.approx(0.75 - 4 * t * t, abs=1e-14)


def test_bruteforce_single_sample_is_one(ref):
    assert beta_bruteforce(1, 0.0, ref) == 1.0


def test_bruteforce_rejects_large_n(ref):
    with pytest.raises(ValueError):
        beta_bruteforce(9, 0.0, ref)


# ----------------------------------------------------------------- exact sum

def test_exact_equals_bruteforce(ref):
    for n in range(1, 7):
        for gamma in (0.0, 0.01, 0.1):
            assert beta_exact(n, gamma, ref) == pytest.approx(
                beta_bruteforce(n, gamma, ref), abs=1e-12
            )


def test_exact_two_sample_formula():
    p = uniform_marginal_dist(0.1)
    assert beta_exact(2, 0.0, p) == pytest.approx(0.71, abs=1e-14)


def test_exact_edge_cases(ref):
    assert beta_exact(1, 0.0, ref) == 1.0
    # gamma above ln 2 accepts every type
    assert beta_exact(30, 0.7, ref) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        beta_exact(0, 0.0, ref)
    with pytest.raises(ValueError):
        beta_exact(2001, 0.0, ref)
    with pytest.raises(ValueError):
        beta_exact(10, -0.1, ref)
    with pytest.raises(ValueError):
        beta_exact(10, 0.0, JointDist2x2(0.5, 0.5, 0.0, 0.0))


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_exact_routes_refuse_a_gamma_that_is_not_finite(ref, gamma):
    for route, n in ((beta_exact, 10), (beta_bruteforce, 4)):
        with pytest.raises(ValueError, match=f"^gamma={gamma!r} must be finite$"):
            route(n, gamma, ref)


@pytest.mark.parametrize("n", [True, 4.5, 4.0])
def test_exact_routes_refuse_an_n_that_is_no_integer(ref, n):
    for call in (
        lambda: beta_exact(n, 0.0, ref),
        lambda: beta_bruteforce(n, 0.0, ref),
        lambda: beta_product_mass(n, ref),
    ):
        with pytest.raises(ValueError, match=f"^n={n!r} must be an integer >= 1$"):
            call()


def test_exact_monotone_in_gamma(ref):
    for n in (10, 37, 120):
        vals = [beta_exact(n, g, ref) for g in (0.0, 0.001, 0.005, 0.02, 0.1, 0.7)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


def test_margin_walks_match_triple_loop(ref):
    # the Pinsker band must keep every accepted type, from gamma = 0 (product
    # types only) up to a gamma above ln 2 (every type)
    for n in (7, 9, 12, 25, 40):
        for gamma in (0.0, 1e-5, 0.001, 0.005, 0.009, 0.0099, 0.01, 0.05, 0.7):
            assert beta_exact(n, gamma, ref) == pytest.approx(
                exact_reference(n, gamma, ref), rel=1e-13
            )
    # the gcd lattice must find every product type: primes, prime powers,
    # composites
    for n in (1, 13, 16, 30, 36, 97):
        assert beta_product_mass(n, ref) == pytest.approx(
            exact_reference(n, 0.0, ref), rel=1e-13
        )


def exact_multi_reference(n, gammas, ref):
    """Oracle: _beta_exact_multi with every array spanning its whole batch;
    the body of the unbuffered margin walk, unchanged."""
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
        run, k = _runs(np.maximum(t_hi - t_lo + 1, 0).astype(np.int64))
        cells, w = _type_weights(
            lgf, ref, t_lo.astype(np.int64)[run] + k, r0[run], c0[run]
        )
        mi = mi_from_counts_batch(*cells)
        for j, g in enumerate(gam):
            acc[j] += w[mi <= g].sum()
    return np.minimum(acc, 1.0)


def test_sub_range_walk_matches_unbuffered_reference(ref):
    # bit for bit: each gamma sums the same batch arrays in the same order;
    # n = 400 spans several batches of many sub-ranges each
    wide = [0.0, 1e-5, 0.001, 0.005, 0.009, 0.05, 0.3, 0.7]
    for n in (7, 60, 200, 400):
        for gammas in (default_gamma_grid(ETA)[1:], wide):
            got = _beta_exact_multi(n, gammas, ref)
            assert got.tolist() == exact_multi_reference(n, gammas, ref).tolist(), n


def traced_peak(fn, *args, **kwargs):
    """(fn's result, its traced peak allocation in bytes above the start)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_exact_walk_memory_stays_bounded(ref):
    # a batch's weights and MIs (at most 2 x 4 MiB) plus one gamma's mask and
    # selection; about 12.5 MiB, where arrays of every temporary at batch
    # length peak near 60 MiB
    _, peak = traced_peak(_beta_exact_multi, 200, default_gamma_grid(ETA)[1:], ref)
    assert peak < 16 * 2 ** 20, peak / 2 ** 20


def product_mass_reference(n, ref):
    """Oracle: beta_product_mass with its weights computed over every
    lattice point at once; the body of the unchunked sum, unchanged."""
    r0 = np.arange(n + 1)
    step = n // np.gcd(r0, n)
    run, k = _runs(n // step + 1)
    c0 = k * step[run]
    _, w = _type_weights(_log_factorials(n), ref, r0[run] * c0 // n, r0[run], c0)
    return min(float(w.sum()), 1.0)


def test_product_mass_sub_ranges_match_unchunked_reference(ref):
    # bit for bit: the same weights summed in the same order; from n = 2000
    # on the lattice spans several sub-ranges
    for n in (1, 2, 20, 97, 2000, 5000, 10_000):
        assert beta_product_mass(n, ref) == product_mass_reference(n, ref), n


def test_product_mass_memory_stays_bounded(ref):
    # the weights of all 126 000 lattice points (1 MB) plus one sub-range's
    # temporaries; about 3.5 MiB, where temporaries over every point peak
    # near 11.4 MiB
    _, peak = traced_peak(beta_product_mass, 10_000, ref)
    assert peak < 4 * 2 ** 20, peak / 2 ** 20


def test_product_mass_matches_exact_at_zero(ref):
    for n in (1, 2, 3, 10, 37, 100, 200):
        assert beta_product_mass(n, ref) == pytest.approx(
            beta_exact(n, 0.0, ref), abs=1e-12
        )


# ----------------------------------------------------------------- Monte Carlo

def test_mc_deterministic_given_seed():
    a = beta_mc(100, 0.005, ETA, 20_000, seed=7)
    b = beta_mc(100, 0.005, ETA, 20_000, seed=7)
    assert a == b
    c = beta_mc(100, 0.005, ETA, 20_000, seed=8)
    assert c != a


def test_mc_close_to_exact(ref):
    for n in (50, 100):
        for gamma in (0.001, 0.005):
            exact = beta_exact(n, gamma, ref)
            est = beta_mc(n, gamma, ETA, 100_000, seed=3)
            assert abs(est - exact) / exact < 0.15


def test_mc_doubling_samples_is_stable():
    # unbiased-estimator shape: doubling the sample count must not move the
    # mean estimate by more than 3 empirical standard errors
    small = np.array([beta_mc(100, 0.005, ETA, 20_000, seed=s) for s in range(10)])
    big = np.array([beta_mc(100, 0.005, ETA, 40_000, seed=100 + s) for s in range(10)])
    se = math.hypot(small.std(ddof=1) / math.sqrt(10), big.std(ddof=1) / math.sqrt(10))
    assert abs(small.mean() - big.mean()) <= 3 * se


def test_mc_rejects_bad_args():
    with pytest.raises(ValueError):
        beta_mc(100, 0.0, ETA, 1000, seed=0)  # measure-zero acceptance region
    with pytest.raises(ValueError):
        beta_mc(100, 0.02, ETA, 1000, seed=0)  # gamma >= eta
    with pytest.raises(ValueError):
        beta_mc(100, 0.005, 0.8, 1000, seed=0)  # eta out of range
    with pytest.raises(ValueError):
        beta_mc(0, 0.005, ETA, 1000, seed=0)
    # the same checks and messages as build_table
    for samples in (-5, 0, 2.5, True):
        with pytest.raises(ValueError, match=f"samples={samples!r} must be an integer >= 1"):
            beta_mc(100, 0.005, ETA, samples, seed=0)
    for seed in (-3, 2.5, True):
        with pytest.raises(ValueError, match=f"seed={seed!r} must be an integer >= 0"):
            beta_mc(100, 0.005, ETA, 1000, seed=seed)


def test_mc_low_effective_sample_size_raises():
    with pytest.raises(EffectiveSampleSizeError):
        beta_mc(100, 0.005, ETA, 50, seed=0)


def mc_reference(n, gamma, eta, samples, seed):
    """Oracle: beta_mc computed over the full sample arrays at once, without
    blocks; the body of the full-array estimator, unchanged."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (0.0 < eta < MI_UPPER):
        raise ValueError(f"eta={eta!r} outside (0, ln 2)")
    if not (0.0 < gamma < eta):
        raise ValueError(
            f"gamma={gamma!r} must lie in (0, eta); the gamma=0 acceptance "
            "region has measure zero, use beta_product_mass instead"
        )
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")

    ref = reference_dist(eta)
    ln_ref = np.log(np.asarray(ref.cells))
    t_gamma = find_t_plus(gamma)
    sm = _sigma_marginal(n)
    st = _sigma_t(n, t_gamma, ln_ref)

    rng = np.random.default_rng(seed)
    pa = rng.normal(0.5, sm, samples)
    pb = rng.normal(0.5, sm, samples)
    tt = rng.normal(t_gamma, st, samples)

    q = np.stack([pa * pb + tt, pa * (1 - pb) - tt, (1 - pa) * pb - tt,
                  (1 - pa) * (1 - pb) + tt])
    valid = (q > 0.0).all(axis=0)
    qv = q[:, valid]

    with np.errstate(divide="ignore", invalid="ignore"):
        lnq = np.log(qv)
        ra = qv[0] + qv[1]
        rb = qv[0] + qv[2]
        denom = np.stack([ra * rb, ra * (1 - rb), (1 - ra) * rb,
                          (1 - ra) * (1 - rb)])
        mi = (qv * (lnq - np.log(denom))).sum(axis=0)
        kl = (qv * (lnq - ln_ref[:, None])).sum(axis=0)
        log_integrand = 1.5 * math.log(n / (2 * math.pi)) - n * kl - 0.5 * lnq.sum(axis=0)

    def log_norm_pdf(x, mu, sigma):
        return -0.5 * ((x - mu) / sigma) ** 2 - math.log(sigma * math.sqrt(2 * math.pi))

    log_g = (
        log_norm_pdf(pa[valid], 0.5, sm)
        + log_norm_pdf(pb[valid], 0.5, sm)
        + log_norm_pdf(tt[valid], t_gamma, st)
    )
    w = np.where(mi <= gamma, np.exp(log_integrand - log_g), 0.0)

    wsum = float(w.sum())
    wsq = float((w * w).sum())
    ess = wsum * wsum / wsq if wsq > 0.0 else 0.0
    if ess < ESS_FLOOR:
        raise EffectiveSampleSizeError(
            f"effective sample size {ess:.1f} below floor {ESS_FLOOR:g} "
            f"at n={n}, gamma={gamma!r}, eta={eta!r}"
        )
    return min(wsum / samples, 1.0)


def mc_outcome(fn, *args):
    try:
        return fn(*args)
    except EffectiveSampleSizeError as exc:
        return f"EffectiveSampleSizeError: {exc}"


def test_blocked_mc_matches_full_array_reference():
    cases = [
        (n, gamma, samples)
        for n in (20, 500, 10_000)
        for gamma in (1e-5, 1e-3, 0.9 * ETA)
        for samples in (1000, _MC_BLOCK, _MC_BLOCK + 1, 100_000)
    ]
    cases += [(3, 0.005, 20_000), (100, 0.005, 50)]
    for n, gamma, samples in cases:
        seed = n + samples
        want = mc_outcome(mc_reference, n, gamma, ETA, samples, seed)
        assert mc_outcome(beta_mc, n, gamma, ETA, samples, seed) == want, (n, gamma, samples)
    # the n = 3 case draws points off the simplex and still gives an estimate
    rng = np.random.default_rng(3 + 20_000)
    pa, pb = rng.normal(0.5, _sigma_marginal(3), (2, 20_000))
    assert ((pa <= 0.0) | (pa >= 1.0) | (pb <= 0.0) | (pb >= 1.0)).any()
    assert isinstance(mc_outcome(beta_mc, 3, 0.005, ETA, 20_000, 3 + 20_000), float)
    assert mc_outcome(beta_mc, 100, 0.005, ETA, 50, 150).startswith(
        "EffectiveSampleSizeError: effective sample size"
    )


# ----------------------------------------------------------------- table build

@pytest.fixture(scope="module")
def small_table():
    return build_table(
        ETA,
        N_grid=[40, 80, 300],
        gamma_grid=[0.0, 0.002, 0.005],
        samples=50_000,
        seed=11,
    )


def test_single_cell_table_reproduces_direct_call(ref):
    tab = build_table(ETA, N_grid=[60], gamma_grid=[0.005], samples=1000, seed=5)
    direct = beta_exact(60, 0.005, ref)
    assert tab.neg_ln_beta[0, 0] == -math.log(direct)
    tab0 = build_table(ETA, N_grid=[60], gamma_grid=[0.0], samples=1000, seed=5)
    assert tab0.neg_ln_beta[0, 0] == -math.log(beta_product_mass(60, ref))


def test_table_cells_match_routes(small_table, ref):
    # exact rows below the cap, MC row above, zero column always exact
    assert small_table.neg_ln_beta[0, 2] == pytest.approx(
        -math.log(beta_exact(40, 0.005, ref)), abs=1e-12
    )
    assert small_table.neg_ln_beta[2, 0] == pytest.approx(
        -math.log(beta_product_mass(300, ref)), abs=1e-12
    )


def test_table_kl_decreasing(small_table):
    kl = small_table.kl_of_gamma
    assert all(a > b for a, b in zip(kl, kl[1:]))


def test_table_entries_nonnegative(small_table):
    assert (small_table.neg_ln_beta >= 0).all()


def test_table_monotone_in_n_in_decay_regime():
    # -ln(beta) grows along N once the exponential-decay regime is reached;
    # below N ~ 200 the statistic's small-sample bias can push it the other
    # way, so the claim is checked from the 200 row onward (5% slack for MC)
    tab = build_table(
        ETA,
        N_grid=[200, 500, 1000, 2000],
        gamma_grid=[0.0, *np.geomspace(ETA / 1000.0, 0.9 * ETA, 6).tolist()],
        samples=50_000,
        seed=23,
    )
    for j in range(len(tab.gamma_grid)):
        col = tab.neg_ln_beta[:, j]
        assert all(col[i + 1] >= 0.95 * col[i] for i in range(len(col) - 1))


def test_table_build_determinism():
    kw = dict(N_grid=[30, 400], gamma_grid=[0.001, 0.005], samples=20_000, seed=9)
    t1 = build_table(ETA, **kw)
    t2 = build_table(ETA, **kw)
    assert (t1.neg_ln_beta == t2.neg_ln_beta).all()


def test_table_validation_errors():
    with pytest.raises(ValueError):
        build_table(ETA, N_grid=[], gamma_grid=[0.001])
    with pytest.raises(ValueError):
        build_table(ETA, N_grid=[10, 10], gamma_grid=[0.001])
    with pytest.raises(ValueError):
        build_table(ETA, N_grid=[10], gamma_grid=[0.02])  # gamma >= eta
    with pytest.raises(ValueError):
        build_table(0.2, N_grid=[10], gamma_grid=[0.001])  # conjecture guard
    # checked on entry, also when every cell is exact and no MC cell runs
    for samples in (-5, 0, 2.5, True):
        with pytest.raises(ValueError, match=f"samples={samples!r} must be an integer"):
            build_table(ETA, N_grid=[20, 50], samples=samples)
    for seed in (-1, 2.5, True):
        with pytest.raises(ValueError, match=f"seed={seed!r} must be an integer >= 0"):
            build_table(ETA, N_grid=[50], gamma_grid=[0.005], seed=seed)
    # refused, not truncated to [20, 50] or [1, 50]
    for N_grid in ([20.7, 50], [True, 50]):
        with pytest.raises(ValueError, match=r"must hold integers"):
            build_table(ETA, N_grid=N_grid, gamma_grid=[0.0, 0.005])


def cell_seed(seed, i, j):
    return int(np.random.SeedSequence((seed, i, j)).generate_state(1)[0])


def test_table_mc_cells_match_full_array_reference():
    # a worker's cells share one set of arrays and still equal the
    # unblocked estimator at their derived seeds, bit for bit
    tab = build_table(ETA, N_grid=[300, 600], gamma_grid=[0.002, 0.005],
                      samples=20_000, seed=41)
    for i, n in enumerate(tab.N_grid):
        for j, g in enumerate(tab.gamma_grid):
            want = -math.log(mc_reference(n, g, ETA, 20_000, cell_seed(41, i, j)))
            assert tab.neg_ln_beta[i, j] == want, (n, g)
    # a plain call afterwards with another sample count is unaffected
    assert beta_mc(600, 0.005, ETA, 5_000, 77) == mc_reference(600, 0.005, ETA, 5_000, 77)


def use_workers(monkeypatch, workers):
    """Make build_table see `workers` CPUs in this process's affinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                        raising=False)


def record_mc_arrays(monkeypatch):
    """The (draws, weights) addresses of every MC cell build_table runs."""
    draws = []

    def recording_mc(*args, _work, **kwargs):
        out = beta_mc(*args, _work=_work, **kwargs)
        draws.append((_work.z.ctypes.data, _work.w.ctypes.data))
        return out

    monkeypatch.setattr(beta_module, "beta_mc", recording_mc)
    return draws


MC_SAMPLES = 100_000
# 3.2 MB of draws and weights, about 1.7 MiB of block arrays per worker;
# allocating them per cell would not raise the peak, which is why the
# addresses are checked as well
MC_WORK_BOUND = 4 * 8 * MC_SAMPLES + 3 * 2 ** 20


def traced_mc_build(monkeypatch, workers):
    use_workers(monkeypatch, workers)
    draws = record_mc_arrays(monkeypatch)
    _, peak = traced_peak(build_table, ETA, N_grid=[500, 1000],
                          gamma_grid=[0.002, 0.005], samples=MC_SAMPLES, seed=3)
    return draws, peak


def test_table_mc_cells_share_one_set_of_arrays(monkeypatch):
    # one worker: four cells, one allocation of the draws and weights
    draws, peak = traced_mc_build(monkeypatch, 1)
    assert len(draws) == 4 and len(set(draws)) == 1
    assert peak < MC_WORK_BOUND, peak / 2 ** 20


def test_table_mc_workers_each_share_one_set_of_arrays(monkeypatch):
    # two workers: four cells, one allocation per worker
    draws, peak = traced_mc_build(monkeypatch, 2)
    assert len(draws) == 4 and len(set(draws)) == 2
    assert peak < 2 * MC_WORK_BOUND, peak / 2 ** 20


# an exact row and a gamma = 0 column around 3 MC rows x 3 gammas: more MC
# cells than workers at every worker count tested
THREADED_GRID = dict(N_grid=[100, 300, 600, 1200],
                     gamma_grid=[0.0, 0.001, 0.003, 0.006])


def test_threaded_build_is_independent_of_worker_count(monkeypatch):
    # the threads switch often, so a lost cell write would show in the table
    tables = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            use_workers(monkeypatch, workers)
            draws = record_mc_arrays(monkeypatch)
            tables.append(build_table(ETA, **THREADED_GRID, samples=20_000, seed=17))
            assert len(draws) == 9 and len(set(draws)) == workers
    finally:
        sys.setswitchinterval(interval)
    for tab in tables[1:]:
        assert tab.neg_ln_beta.tolist() == tables[0].neg_ln_beta.tolist()
    for i, n in enumerate(THREADED_GRID["N_grid"][1:], start=1):
        for j, g in enumerate(THREADED_GRID["gamma_grid"][1:], start=1):
            want = -math.log(mc_reference(n, g, ETA, 20_000, cell_seed(17, i, j)))
            assert tables[0].neg_ln_beta[i, j] == want, (n, g)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_threaded_build_error_names_the_first_failing_cell(monkeypatch, workers):
    # with 10 samples every MC cell fails; the error names the first in
    # row-major order, as a serial build would, and no helper outlives it
    use_workers(monkeypatch, workers)
    threads = threading.active_count()
    with pytest.raises(TableBuildError, match=r"^cell N=300, gamma=0\.001: ") as info:
        build_table(ETA, **THREADED_GRID, samples=10, seed=0)
    assert isinstance(info.value.__cause__, EffectiveSampleSizeError)
    assert threading.active_count() == threads


def record_thread_starts(monkeypatch):
    """Every thread started from here on."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    return started


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_threaded_build_joins_the_threads_it_starts(monkeypatch, workers):
    # task 0 runs in the calling thread, so one worker starts no thread
    use_workers(monkeypatch, workers)
    started = record_thread_starts(monkeypatch)
    threads = threading.active_count()
    build_table(ETA, **THREADED_GRID, samples=20_000, seed=17)
    assert len(started) == workers - 1
    assert threading.active_count() == threads


def test_exact_grid_makes_no_mc_work_and_starts_no_thread(monkeypatch):
    # every row at or below EXACT_CAP: no MC cell, so no work arrays and no pool thread
    use_workers(monkeypatch, 2)
    made = []
    monkeypatch.setattr(beta_module, "_McWork", lambda samples: made.append(samples))
    started = record_thread_starts(monkeypatch)
    tab = build_table(ETA, N_grid=[20, beta_module.EXACT_CAP],
                      gamma_grid=[0.0, 0.005], seed=3)
    assert made == [] and started == []
    assert tab.neg_ln_beta[1, 1] == -math.log(
        beta_exact(beta_module.EXACT_CAP, 0.005, reference_dist(ETA)))


def test_table_build_error_carries_cell_coords():
    with pytest.raises(TableBuildError, match="N=500"):
        build_table(ETA, N_grid=[500], gamma_grid=[0.005], samples=10, seed=0)


@pytest.mark.parametrize("eta", [0.0, -0.01, 0.7, math.nan])
def test_table_refuses_eta_outside_the_mi_range(eta):
    with pytest.raises(ValueError) as info:
        build_table(eta, N_grid=[20], gamma_grid=[0.0])
    assert str(info.value) == f"eta={eta!r} outside (0, ln 2)"


def test_table_refuses_a_descending_gamma_grid():
    with pytest.raises(ValueError) as info:
        build_table(ETA, N_grid=[20], gamma_grid=[0.005, 0.001])
    assert str(info.value) == "gamma_grid [0.005, 0.001] must be ascending"


@pytest.mark.parametrize("cell", [-1.0, math.inf])
def test_table_refuses_a_negative_or_infinite_cell(cell):
    with pytest.raises(ValueError) as info:
        BetaTable(eta=ETA, N_grid=[20], gamma_grid=[0.0, 0.005],
                  neg_ln_beta=[[1.0, cell]], mc_samples=10, seed=0)
    assert str(info.value) == "neg_ln_beta entries must be finite and >= 0"


@pytest.mark.parametrize("name, message", [
    ("_beta_exact_multi", "exact cells at N=20: cell failed"),
    ("beta_product_mass", "cell N=20, gamma=0.0: cell failed"),
], ids=["exact-row", "product-mass"])
def test_table_build_names_a_failing_exact_cell(monkeypatch, name, message):
    cause = RuntimeError("cell failed")

    def fail(*args):
        raise cause

    monkeypatch.setattr(beta_module, name, fail)
    with pytest.raises(TableBuildError) as info:
        build_table(ETA, N_grid=[20], gamma_grid=[0.0, 0.005])
    assert str(info.value) == message
    assert info.value.__cause__ is cause


# ----------------------------------------------------------------- queries

def test_query_at_grid_point_returns_stored(small_table):
    for i, n in enumerate(small_table.N_grid):
        for j, g in enumerate(small_table.gamma_grid):
            if g == 0.0:
                continue  # gamma=0 maps to the top of the KL axis, still exact
            assert query_neg_ln_beta(small_table, n, g) == pytest.approx(
                small_table.neg_ln_beta[i, j], abs=1e-12
            )
    assert query_neg_ln_beta(small_table, 40, 0.0) == pytest.approx(
        small_table.neg_ln_beta[0, 0], abs=1e-12
    )


def test_query_clamps_at_eta(small_table):
    assert query_neg_ln_beta(small_table, 100, ETA) == 0.0
    assert query_neg_ln_beta(small_table, 100, 0.5) == 0.0
    # continuous approach to the clamp
    assert query_neg_ln_beta(small_table, 100, ETA - 1e-9) < 1e-5


def test_query_midpoint_brackets_and_tracks_exact(small_table, ref):
    lo = small_table.neg_ln_beta[0, 2]
    hi = small_table.neg_ln_beta[1, 2]
    mid = query_neg_ln_beta(small_table, 60, 0.005)
    assert min(lo, hi) <= mid <= max(lo, hi)
    assert mid == pytest.approx(-math.log(beta_exact(60, 0.005, ref)), abs=0.1)


def test_query_linear_in_n_between_rows(small_table):
    v40 = query_neg_ln_beta(small_table, 40, 0.002)
    v80 = query_neg_ln_beta(small_table, 80, 0.002)
    v60 = query_neg_ln_beta(small_table, 60, 0.002)
    assert v60 == pytest.approx(0.5 * (v40 + v80), abs=1e-12)


def test_query_extrapolates_beyond_grid(small_table):
    v1 = query_neg_ln_beta(small_table, 300, 0.002)
    v2 = query_neg_ln_beta(small_table, 80, 0.002)
    # beyond the last row: continue the last-segment line
    slope = (v1 - v2) / (300 - 80)
    expect = v1 + slope * 300
    assert query_neg_ln_beta(small_table, 600, 0.002) == pytest.approx(
        expect, rel=1e-9
    )
    # results never go negative
    assert query_neg_ln_beta(small_table, 1, 0.009999) >= 0.0


def test_query_continuous_in_gamma(small_table):
    # geometric sweep: the KL coordinate varies like sqrt(gamma) near zero,
    # so equal-ratio steps keep the axis increments small everywhere
    gs = np.geomspace(1e-6, 0.00999, 400)
    vals = [query_neg_ln_beta(small_table, 150, float(g)) for g in gs]
    jumps = np.abs(np.diff(vals))
    assert jumps.max() < 0.15
    assert all(v >= 0 for v in vals)


def test_query_rejects_bad_args(small_table):
    with pytest.raises(ValueError):
        query_neg_ln_beta(small_table, 0, 0.005)
    with pytest.raises(ValueError):
        query_neg_ln_beta(small_table, 10, -1e-9)


def test_batch_equals_element_by_element(small_table):
    # one array mixing gamma = 0, gamma >= eta, repeated gammas, and n below,
    # inside and above N_grid = [40, 80, 300]
    rng = np.random.default_rng(17)
    gammas = np.concatenate((
        [0.0, 0.0, ETA, 0.5, 0.002, 0.002, ETA - 1e-9],
        rng.uniform(0.0, 1.2 * ETA, 40),
    ))
    ns = np.concatenate(([1, 7, 40, 1000, 60, 301, 79], rng.integers(1, 700, 40)))
    batch = neg_ln_beta_batch(small_table, ns, gammas)
    one_by_one = [neg_ln_beta_batch(small_table, n, g) for n, g in zip(ns, gammas)]
    assert batch.tolist() == [float(v) for v in one_by_one]
    assert batch.tolist() == [
        query_neg_ln_beta(small_table, int(n), float(g)) for n, g in zip(ns, gammas)
    ]
    assert (batch[gammas >= ETA] == 0.0).all()
    assert (batch[gammas < ETA] > 0.0).any()
    assert neg_ln_beta_batch(small_table, [], []).shape == (0,)
    with pytest.raises(ValueError):
        neg_ln_beta_batch(small_table, [40, 0], [0.001, 0.001])
    with pytest.raises(ValueError):
        neg_ln_beta_batch(small_table, [40, 40], [0.001, -1e-9])


def test_lockstep_t_plus_equals_find_t_plus():
    etas = np.concatenate((
        [1e-12, 1e-6, ETA, ETA, 0.3, math.log(2.0) - 1e-9],
        # a relative stop |dt| <= 4e-16 t cycles between two floats here
        [0.001117991876968088],
        np.random.default_rng(23).uniform(1e-9, 0.02, 50),
    ))
    ts = find_t_plus_batch(etas)
    assert ts.tolist() == [find_t_plus(float(e)) for e in etas]
    # bit-equal in any order, with duplicates, one at a time and 0-d
    order = np.random.default_rng(5).permutation(etas.size)
    assert find_t_plus_batch(etas[order]).tolist() == ts[order].tolist()
    doubled = np.concatenate((etas, etas[::-1]))
    assert find_t_plus_batch(doubled).tolist() == np.concatenate((ts, ts[::-1])).tolist()
    assert [find_t_plus_batch(e[None])[0] for e in etas] == ts.tolist()
    zero_d = find_t_plus_batch(np.float64(ETA))
    assert zero_d.shape == () and float(zero_d) == ts[2]
    assert find_t_plus_batch(etas.reshape(3, -1)).tolist() == ts.reshape(3, -1).tolist()
    for t, eta in zip(ts, etas):
        assert abs(mutual_information(uniform_marginal_dist(t)) - eta) <= T_PLUS_TOL
    with pytest.raises(ValueError):
        find_t_plus_batch([0.01, 0.0])


# ----------------------------------------------------------------- file format

def test_table_json_roundtrip(small_table, tmp_path):
    text = table_to_json(small_table)
    back = _table_from_doc(json.loads(text))
    assert back.eta == small_table.eta
    assert back.N_grid == small_table.N_grid
    assert back.gamma_grid == small_table.gamma_grid
    assert back.kl_of_gamma == small_table.kl_of_gamma
    assert (back.neg_ln_beta == small_table.neg_ln_beta).all()
    assert back.mc_samples == small_table.mc_samples
    assert back.seed == small_table.seed

    path = tmp_path / "beta.json"
    save_table(small_table, path)
    again = load_table(path)
    assert (again.neg_ln_beta == small_table.neg_ln_beta).all()
    # queries agree after the roundtrip
    assert query_neg_ln_beta(again, 123, 0.003) == query_neg_ln_beta(
        small_table, 123, 0.003
    )


@pytest.mark.parametrize("field, value, match", [
    ("neg_ln_beta", lambda v: [math.nan] + v[1:], "finite"),
    ("N_grid", lambda v: v[::-1], "N_grid"),
    ("gamma_grid", lambda v: v[:-1] + [ETA], "gamma_grid"),
    ("eta", None, "'eta'"),
    ("neg_ln_beta", lambda v: v[:-1], "neg_ln_beta has 8 cells"),
    ("eta", lambda v: 0.8, "outside"),
    ("N_grid", lambda v: [n + 0.7 for n in v], "entry of beta table key 'N_grid' is 40.7, not an integer"),
    ("seed", lambda v: 1.9, "'seed' is 1.9, not an integer"),
    ("mc_samples", lambda v: 1000.0, "'mc_samples' is 1000.0, not an integer"),
    ("seed", lambda v: True, "'seed' is True, not an integer"),
    ("mc_samples", lambda v: -5, "mc_samples=-5 must be an integer >= 1"),
    ("mc_samples", lambda v: 0, "mc_samples=0 must be an integer >= 1"),
    ("seed", lambda v: -1, "seed=-1 must be an integer >= 0"),
    ("N_grid", lambda v: 5, "'N_grid' is 5, not a list"),
    ("neg_ln_beta", lambda v: {"cells": v}, "'neg_ln_beta' is .*, not a list"),
    ("gamma_grid", lambda v: v[:-1] + [None], "entry of beta table key 'gamma_grid' is None"),
    ("neg_ln_beta", lambda v: [[x] for x in v], r"'neg_ln_beta' is \[.*\], not a number"),
    ("eta", lambda v: [v], r"'eta' is \[0\.01\], not a number"),
    ("gamma_grid", lambda v: v[:-1] + [math.nan],
     "entry of beta table key 'gamma_grid' is nan, not a finite number"),
], ids=[
    "nan-cell", "reversed-N", "gamma-at-eta", "missing-key", "short-cells", "eta-above-ln2",
    "fractional-N", "fractional-seed", "float-mc-samples", "bool-seed",
    "negative-mc-samples", "zero-mc-samples", "negative-seed",
    "int-N-grid", "object-cells", "null-gamma", "nested-cells", "list-eta", "nan-gamma",
])
def test_table_from_json_rejects_bad_grids_and_cells(
    small_table, tmp_path, field, value, match
):
    doc = json.loads(table_to_json(small_table))
    if value is None:
        del doc[field]
    else:
        doc[field] = value(doc[field])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=match) as info:
        load_table(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("text", ["5", "[]", "null", '"beta table"'])
def test_table_from_json_rejects_a_document_that_is_no_object(text):
    with pytest.raises(ValueError, match="beta table is not a JSON object"):
        _table_from_doc(json.loads(text))


def test_table_ignores_kl_of_gamma_in_file(small_table):
    # the KL axis follows from (eta, gamma_grid); a short, scaled or missing
    # copy in the file must not move any query
    doc = json.loads(table_to_json(small_table))
    ns = [1, 30, 40, 60, 123, 300, 1000]
    gammas = [0.0, 1e-4, 0.002, 0.003, 0.005, 0.009]
    expect = [query_neg_ln_beta(small_table, n, g) for n in ns for g in gammas]
    for kl in (doc["kl_of_gamma"][:-1], [3 * k for k in doc["kl_of_gamma"]], None):
        if kl is None:
            del doc["kl_of_gamma"]
        else:
            doc["kl_of_gamma"] = kl
        back = _table_from_doc(doc)
        assert back.kl_of_gamma == small_table.kl_of_gamma
        assert [query_neg_ln_beta(back, n, g) for n in ns for g in gammas] == expect


def test_table_rejects_malformed():
    with pytest.raises(ValueError):
        BetaTable(
            eta=ETA,
            N_grid=[10, 20],
            gamma_grid=[0.001],
            neg_ln_beta=np.zeros((1, 1)),
            mc_samples=10,
            seed=0,
        )


@pytest.mark.parametrize("field, value, match", [
    ("mc_samples", 0, "mc_samples=0 must be an integer >= 1"),
    ("mc_samples", True, "mc_samples=True must be an integer >= 1"),
    ("seed", -1, "seed=-1 must be an integer >= 0"),
])
def test_table_refuses_a_count_that_no_file_could_hold(small_table, field, value, match):
    """The table checks its own mc_samples and seed, so save_table never
    writes a file that load_table refuses."""
    kwargs = {k: getattr(small_table, k) for k in
              ("eta", "N_grid", "gamma_grid", "neg_ln_beta", "mc_samples", "seed")}
    with pytest.raises(ValueError, match=match):
        BetaTable(**{**kwargs, field: value})
