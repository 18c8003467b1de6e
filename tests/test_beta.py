import json
import math

import numpy as np
import pytest

from bnboost.dist2x2 import (
    T_PLUS_TOL,
    JointDist2x2,
    find_t_plus,
    find_t_plus_batch,
    mutual_information,
    reference_dist,
    uniform_marginal_dist,
)
from bnboost.beta import (
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
    table_from_json,
    table_to_json,
)

ETA = 0.01


@pytest.fixture(scope="module")
def ref():
    return reference_dist(ETA)


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


def test_exact_monotone_in_gamma(ref):
    for n in (10, 37, 120):
        vals = [beta_exact(n, g, ref) for g in (0.0, 0.001, 0.005, 0.02, 0.1, 0.7)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


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


def test_mc_low_effective_sample_size_raises():
    with pytest.raises(EffectiveSampleSizeError):
        beta_mc(100, 0.005, ETA, 50, seed=0)


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
        gamma_grid=default_gamma_grid(ETA, points=6),
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


def test_table_build_error_carries_cell_coords():
    with pytest.raises(TableBuildError, match="N=500"):
        build_table(ETA, N_grid=[500], gamma_grid=[0.005], samples=10, seed=0)


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
        np.random.default_rng(23).uniform(1e-9, 0.02, 50),
    ))
    ts = find_t_plus_batch(etas)
    assert ts.tolist() == [find_t_plus(float(e)) for e in etas]
    for t, eta in zip(ts, etas):
        assert abs(mutual_information(uniform_marginal_dist(t)) - eta) <= T_PLUS_TOL
    with pytest.raises(ValueError):
        find_t_plus_batch([0.01, 0.0])


# ----------------------------------------------------------------- file format

def test_table_json_roundtrip(small_table, tmp_path):
    text = table_to_json(small_table)
    back = table_from_json(text)
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
], ids=["nan-cell", "reversed-N", "gamma-at-eta"])
def test_table_from_json_rejects_bad_grids_and_cells(small_table, field, value, match):
    doc = json.loads(table_to_json(small_table))
    doc[field] = value(doc[field])
    with pytest.raises(ValueError, match=match):
        table_from_json(json.dumps(doc))


def test_table_rejects_malformed():
    with pytest.raises(ValueError):
        BetaTable(
            eta=ETA,
            N_grid=[10, 20],
            gamma_grid=[0.001],
            neg_ln_beta=np.zeros((1, 1)),
            kl_of_gamma=[0.5],
            mc_samples=10,
            seed=0,
        )
    with pytest.raises(ValueError):
        BetaTable(
            eta=ETA,
            N_grid=[10],
            gamma_grid=[0.001, 0.002],
            neg_ln_beta=np.zeros((1, 2)),
            kl_of_gamma=[0.1, 0.2],  # must decrease in gamma
            mc_samples=10,
            seed=0,
        )
