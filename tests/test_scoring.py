import logging
import math
import re
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from bnboost import scoring
from bnboost.beta import build_table, query_neg_ln_beta
from bnboost.data import BinaryDataset, Dag, Network, random_network, sample
from bnboost.dist2x2 import JointDist2x2, mi_from_counts, mutual_information
from bnboost.scoring import (
    ParentSetScoreTable,
    ScoreConfig,
    _bincount,
    _by_prefix,
    _CountContext,
    _distinct_rows,
    _gram_count,
    _joint_probabilities,
    _superset_sums,
    _zeta_count,
    build_parent_set_scores,
    dim,
    edge_strengths,
    load_scores,
    pair_boosts,
    save_scores,
    total_score,
)
from oracles import bic_reference

LN_HALF = math.log(0.5)


@pytest.fixture(scope="module")
def table():
    return build_table(
        0.01,
        N_grid=[20, 50, 100, 200, 500, 1000, 2000, 5000],
        samples=30_000,
        seed=1,
    )


def mask_counts(rows, cols):
    """Joint counts of the columns cols of rows by one boolean mask over the
    rows per cell; column cols[j] is bit j of the cell index."""
    counts = []
    for cell in range(1 << len(cols)):
        mask = np.ones(len(rows), dtype=bool)
        for j, c in enumerate(cols):
            mask &= rows[:, c] == ((cell >> j) & 1)
        counts.append(int(mask.sum()))
    return counts


def bincount_reference(rows, cols, weights=None):
    """Joint counts of the columns cols of rows by one plain bincount over
    the rows; column cols[j] is bit j of the cell index."""
    idx = np.zeros(len(rows), dtype=np.intp)
    for j, c in enumerate(cols):
        idx += rows[:, c].astype(np.intp) << j
    return np.bincount(idx, weights=weights, minlength=1 << len(cols))


def family_ll_reference(data, i, parents):
    """Maximized log-likelihood of node i given parents, one family at a
    time."""
    counts = bincount_reference(data.rows, (i, *parents)).reshape(-1, 2)
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(
            counts > 0, counts * np.log(counts / np.maximum(totals, 1)), 0.0
        )
    return float(terms.sum())


def boost_reference(data, a, b, table, d):
    """Independent boost oracle: one scalar query per stratum, the min over
    assignments (0 once one is unseen), the max over separating sets."""
    rest = [v for v in range(data.n_vars) if v not in (a, b)]
    best = 0.0
    for k in range(min(d, len(rest)) + 1):
        for sep in combinations(rest, k):
            worst = math.inf
            tables = np.reshape(mask_counts(data.rows, (b, a, *sep)), (-1, 4))
            for c00, c01, c10, c11 in tables.tolist():
                n_s = c00 + c01 + c10 + c11
                if n_s == 0:
                    worst = 0.0
                    break
                mi = mi_from_counts(c00, c01, c10, c11)
                worst = min(worst, query_neg_ln_beta(table, n_s, mi))
            best = max(best, worst)
    return best


def strong_chain(n_rows, seed):
    """X0 -> X1 -> X2 with 10% flips, X3 and X4 fair coins: the two edges
    of the chain have MI far above eta given every separating set."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(n_rows, 5))
    flip = rng.random((n_rows, 2)) < 0.1
    x[:, 1] = x[:, 0] ^ flip[:, 0]
    x[:, 2] = x[:, 1] ^ flip[:, 1]
    return BinaryDataset(tuple("ABCDE"), x.astype(np.uint8))


# ------------------------------------------------------------------ LL and dim

def log_likelihood(data, dag):
    """The maximized log-likelihood: BIC's total_score, under no in-degree
    bound, with its penalty kappa * ln(N) * dim added back."""
    bic = ScoreConfig(psi2=0.0, d=dag.n)
    return total_score(data, dag, None, bic) + bic.kappa * math.log(data.n_rows) * dim(dag)


def test_ll_single_variable():
    data = BinaryDataset(("A",), np.array([[0], [0], [1], [1]]))
    assert log_likelihood(data, Dag(1, frozenset())) == pytest.approx(
        4 * LN_HALF, abs=1e-12
    )


def test_ll_correlated_pair(four_rows):
    connected = log_likelihood(four_rows, Dag(2, frozenset({(0, 1)})))
    disconnected = log_likelihood(four_rows, Dag(2, frozenset()))
    assert connected == pytest.approx(4 * LN_HALF, abs=1e-12)
    assert disconnected == pytest.approx(8 * LN_HALF, abs=1e-12)


def test_ll_never_decreases_with_edges():
    net = random_network(5, 2, seed=21)
    data = sample(net, 200, seed=22)
    rng = np.random.default_rng(9)
    for _ in range(30):
        g = random_network(5, 2, seed=int(rng.integers(1 << 30))).dag
        missing = [
            (a, b)
            for a, b in combinations(range(5), 2)
            if not g.adjacent(a, b)
        ]
        if not missing:
            continue
        a, b = missing[int(rng.integers(len(missing)))]
        try:
            bigger = Dag(5, g.edges | {(a, b)})
        except ValueError:
            continue
        assert log_likelihood(data, bigger) >= log_likelihood(data, g) - 1e-9


def test_dim():
    assert dim(Dag(4, frozenset())) == 4
    assert dim(Dag(2, frozenset({(0, 1)}))) == 3
    assert dim(Dag(3, frozenset({(0, 2), (1, 2)}))) == 1 + 1 + 4


# ------------------------------------------------------------------ pair boosts

def test_boost_zero_for_dependent_pair(table, four_rows):
    assert pair_boosts(four_rows, table, ScoreConfig())[(0, 1)] == 0.0


def test_boost_at_least_unconditional_term(table):
    # the empty set always belongs to the bounded-size collection, so the
    # max-min can only improve on the marginal test
    net = random_network(4, 1, seed=31)
    data = sample(net, 400, seed=32)
    full = pair_boosts(data, table, ScoreConfig())
    only_empty = pair_boosts(data, table, ScoreConfig(d=0))
    for pair in combinations(range(4), 2):
        assert full[pair] >= only_empty[pair] - 1e-12


def test_boost_grows_with_sample_count(table):
    net = Network(dag=Dag(2, frozenset()), theta={0: {}, 1: {}}, bias={0: 0.0, 1: 0.0})
    cfg = ScoreConfig()
    wins = 0
    for s in range(10):
        small = sample(net, 500, seed=100 + s)
        large = sample(net, 2000, seed=200 + s)
        wins += (
            pair_boosts(large, table, cfg)[(0, 1)] > pair_boosts(small, table, cfg)[(0, 1)]
        )
    assert wins >= 9


def test_boost_graph_independent(table):
    # total_score reads every pair's boost from its own pass; each
    # nonadjacent pair must get the value pair_boosts gives it
    net = random_network(5, 2, seed=41)
    data = sample(net, 300, seed=42)
    cfg = ScoreConfig()
    boosts = pair_boosts(data, table, cfg)
    for g in (Dag(5, frozenset()), Dag(5, frozenset({(2, 3), (0, 4)}))):
        bic = total_score(data, g, None, ScoreConfig(psi2=0.0))
        expect = sum(v for pair, v in boosts.items() if not g.adjacent(*pair))
        assert total_score(data, g, table, cfg) - bic == pytest.approx(expect, abs=1e-9)


def test_boost_unobserved_assignment_contributes_zero(table):
    # S = {C} with C constant: the unobserved C=1 branch zeroes that set,
    # and with d=1 the only other set is the empty one
    rows = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0], [1, 1, 0]] * 10)
    data = BinaryDataset(("A", "B", "C"), rows)
    boost = pair_boosts(data, table, ScoreConfig(d=1))[(0, 1)]
    only_empty = pair_boosts(data, table, ScoreConfig(d=0))[(0, 1)]
    assert boost == pytest.approx(only_empty, abs=1e-12)


def skewed_sample(n_rows, seed):
    """Six variables with P(X = 1) near 0.12: at 30 rows some strata of
    some two-variable separating sets stay empty, and for some pairs such a
    set would win the max if its empty strata were skipped."""
    net = random_network(6, 2, seed=seed)
    skewed = Network(dag=net.dag, theta=net.theta, bias={i: -2.0 for i in range(6)})
    return sample(skewed, n_rows, seed=seed + 1)


@pytest.mark.parametrize("data", [
    skewed_sample(30, seed=61),
    strong_chain(2000, seed=63),
    sample(random_network(6, 2, seed=64), 700, seed=65),
], ids=["n6-N30-unseen-strata", "mi-above-eta", "n6-N700"])
def test_pair_boosts_match_scalar_reference(table, data):
    cfg = ScoreConfig()
    got = pair_boosts(data, table, cfg)
    want = {
        (a, b): boost_reference(data, a, b, table, cfg.d)
        for a, b in combinations(range(data.n_vars), 2)
    }
    assert list(got) == list(want)
    for pair, value in want.items():
        assert got[pair] == pytest.approx(value, rel=1e-12, abs=1e-12), pair
    assert any(v > 0.0 for v in want.values())


def test_reference_datasets_reach_unseen_strata_and_mi_above_eta():
    unseen = skewed_sample(30, seed=61)
    assert any(
        0 in mask_counts(unseen.rows, sep)
        for sep in combinations(range(unseen.n_vars), 2)
    )
    chain = strong_chain(2000, seed=63)
    for a, b in ((0, 1), (1, 2)):
        assert mi_from_counts(*mask_counts(chain.rows, (b, a))) > 0.1


def test_pair_boosts_logs_batch_counts_at_debug(table, caplog):
    # C is constant, so the stratum C = 1 of the pair (A, B) is never seen
    rows = np.array([[0, 0, 0], [0, 0, 0], [1, 1, 0], [1, 1, 0]])
    data = BinaryDataset(("A", "B", "C"), rows)
    with caplog.at_level(logging.INFO, logger="bnboost.scoring"):
        pair_boosts(data, table, ScoreConfig())
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="bnboost.scoring"):
        pair_boosts(data, table, ScoreConfig())
    (record,) = caplog.records
    assert record.getMessage() == (
        "pair_boosts: 3 pairs, 6 separating sets, 9 tables, 8 queries "
        "(6 below eta: 0 above and 6 below the N grid), 1 unseen assignments"
    )


def boosted_results(data, table, cfg):
    """Every boosted figure of data as float.hex: the build's table (its
    families in order), the pair boosts, and total_score on three graphs."""
    pst = build_parent_set_scores(data, table, cfg)
    dags = [Dag(data.n_vars, frozenset()),
            random_network(data.n_vars, min(cfg.d, 2), seed=data.n_vars).dag,
            random_network(data.n_vars, 1, seed=data.n_vars + 1).dag]
    return (
        pst.constant.hex(),
        [(i, sorted(pa), v.hex()) for i in range(pst.n) for pa, v in pst.scores[i].items()],
        {pair: v.hex() for pair, v in pair_boosts(data, table, cfg).items()},
        [total_score(data, g, table, cfg).hex() for g in dags],
    )


@pytest.mark.parametrize("data", [
    skewed_sample(30, seed=61),
    strong_chain(2000, seed=63),
    sample(random_network(3, 1, seed=81), 40, seed=82),
    sample(random_network(8, 2, seed=83), 500, seed=84),
    sample(random_network(10, 2, seed=85), 300, seed=86),
], ids=["n6-N30-unseen-strata", "n5-mi-above-eta", "n3", "n8", "n10"])
@pytest.mark.parametrize("d", [2, 3])
def test_boosts_do_not_depend_on_the_stratum_budget(table, monkeypatch, data, d):
    # at the default budget these n take one chunk; 7 strata cut every set
    # size into several chunks and join sizes in one, 1 gives each set its own
    cfg = ScoreConfig(d=d)
    want = boosted_results(data, table, cfg)
    for budget in (1, 7):
        monkeypatch.setattr(scoring, "_STRATA_BUDGET", budget)
        assert boosted_results(data, table, cfg) == want, budget


def test_debug_line_sums_over_chunks(table, monkeypatch, caplog):
    data = skewed_sample(30, seed=61)
    messages = []
    for budget in (scoring._STRATA_BUDGET, 1):
        monkeypatch.setattr(scoring, "_STRATA_BUDGET", budget)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="bnboost.scoring"):
            pair_boosts(data, table, ScoreConfig())
        (record,) = caplog.records
        messages.append(record.getMessage())
    assert messages == 2 * [
        "pair_boosts: 15 pairs, 165 separating sets, 495 tables, 429 queries "
        "(356 below eta: 0 above and 240 below the N grid), 66 unseen assignments"
    ]


def test_a_boosted_build_counts_from_one_context(table, monkeypatch):
    calls = []
    for name in ("_distinct_rows", "_superset_sums", "_zeta_count"):
        def spy(*args, _name=name, _real=getattr(scoring, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(scoring, name, spy)
    # n = 12, N = 20 000: the strata of sizes 1 and 2 and the families of
    # one and two parents all take the transform
    data = sample(random_network(12, 2, seed=7000), 20_000, seed=8)
    for cfg in (ScoreConfig(), ScoreConfig(psi2=0.0)):
        calls.clear()
        build_parent_set_scores(data, table if cfg.psi2 else None, cfg)
        assert calls.count("_distinct_rows") == 1
        assert calls.count("_superset_sums") == 1
        assert calls.count("_zeta_count") >= (4 if cfg.psi2 else 2)
    calls.clear()
    pair_boosts(data, table, ScoreConfig())
    assert calls.count("_distinct_rows") == calls.count("_superset_sums") == 1


def test_pair_boosts_memory_does_not_grow_with_the_pairs(table):
    # the strata stream in chunks; holding every stratum at once peaked at
    # 51 MiB at n = 24 and 99 MiB at n = 28
    peaks = []
    for n in (24, 28):
        data = sample(random_network(n, 2, seed=140 + n), 2000, seed=141 + n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pair_boosts(data, table, ScoreConfig())
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2 ** 20)
        finally:
            tracemalloc.stop()
    assert peaks[1] < 20.0 and peaks[1] - peaks[0] < 2.0, peaks


def test_boosted_table_of_one_variable(table):
    data = BinaryDataset(("A",), np.array([[0], [1], [1]]))
    empty = Dag(1, frozenset())
    assert pair_boosts(data, table, ScoreConfig()) == {}
    assert build_parent_set_scores(data, table, ScoreConfig()).constant == 0.0
    assert total_score(data, empty, table, ScoreConfig()) == total_score(
        data, empty, None, ScoreConfig(psi2=0.0)
    )


@pytest.mark.parametrize("n", [2, 3])
def test_separating_sets_above_n_minus_2_change_nothing(table, n):
    data = sample(random_network(n, 1, seed=70 + n), 300, seed=72)
    empty = Dag(n, frozenset())
    wide, tight = ScoreConfig(d=5), ScoreConfig(d=n - 2)
    assert pair_boosts(data, table, wide) == pair_boosts(data, table, tight)
    assert (build_parent_set_scores(data, table, wide).constant
            == build_parent_set_scores(data, table, tight).constant)
    assert (total_score(data, empty, table, wide)
            == total_score(data, empty, table, tight))


def test_boosted_score_rejects_table_of_other_eta(table, four_rows):
    other = ScoreConfig(eta=0.05)
    empty = Dag(2, frozenset())
    for score in (
        lambda: build_parent_set_scores(four_rows, table, other),
        lambda: total_score(four_rows, empty, table, other),
        lambda: pair_boosts(four_rows, table, other),
    ):
        with pytest.raises(ValueError, match=r"0\.01.*0\.05"):
            score()
    # BIC reads no eta, and the tolerance matches cli score's
    bic = replace(other, psi2=0.0)
    assert total_score(four_rows, empty, table, bic) == total_score(
        four_rows, empty, None, bic
    )
    with pytest.raises(ValueError):  # the boosts themselves need a table
        pair_boosts(four_rows, None, bic)
    close = ScoreConfig(eta=table.eta + 1e-13)
    assert pair_boosts(four_rows, table, close) == pair_boosts(
        four_rows, table, ScoreConfig()
    )


# ----------------------------------------------------------- counting kernel

def random_rows(n_rows, n_vars, seed):
    return np.random.default_rng(seed).integers(0, 2, size=(n_rows, n_vars))


@pytest.mark.parametrize("rows", [
    random_rows(50, 1, seed=1),
    random_rows(200, 3, seed=2),
    random_rows(3000, 8, seed=3),
    random_rows(400, 70, seed=4),
    random_rows(1, 5, seed=5),
    np.tile(random_rows(1, 10, seed=6), (100, 1)),
    random_rows(20_000, 18, seed=7),
], ids=["n1", "n3", "n8-chunked", "n70-two-words", "N1", "identical-rows",
        "n18-many-products"])
def test_batched_counts_match_bincount(rows):
    rows = rows.astype(np.uint8)
    n = rows.shape[1]
    bits, weights = _distinct_rows(rows)
    assert weights.dtype == np.int64
    distinct, counts = np.unique(rows, axis=0, return_counts=True)
    assert sorted(zip(map(tuple, bits.T.tolist()), weights.tolist())) == sorted(
        zip(map(tuple, distinct.tolist()), counts.tolist())
    )
    rng = np.random.default_rng(n)
    for k in range(min(n, 5) + 1):
        colsets = np.array(
            [rng.choice(n, size=k, replace=False) for _ in range(300)]
            + [list(range(n - k, n))]  # the last columns: the second word at n = 70
        ).reshape(301, k)
        want = np.array([bincount_reference(rows, cs) for cs in colsets])
        assert (_CountContext(bits, weights).count(colsets) == want).all()
        assert (_bincount(bits, weights, colsets) == want).all()
        if k >= 2:  # every route, whichever count takes
            gram = _gram_count(bits, weights, colsets, *_by_prefix(colsets, n))
            assert (gram == want).all()
        if n <= 18:  # every case but n = 70, whose histogram has 2^70 cells
            assert (_zeta_count(colsets, _superset_sums(bits, weights)) == want).all()


def family_colsets(n, k):
    return np.array([
        (i, *pa) for i in range(n)
        for pa in combinations([v for v in range(n) if v != i], k - 1)
    ])


def test_count_routes_follow_the_work_rule(monkeypatch):
    """The route each count takes in BIC builds of the size of the
    cli-bic-n12 and bic-dp-n18 workloads; every route gives the bincount's
    counts."""
    routes, rows = [], {}
    bincount = scoring._bincount
    for name in ("_zeta_count", "_gram_count", "_bincount"):
        def route(*args, _name=name, _real=getattr(scoring, name)):
            colsets = args[0] if _name == "_zeta_count" else args[2]
            routes.append((_name, colsets.shape))
            out = _real(*args)
            assert (out == bincount(*rows["distinct"], colsets)).all()
            return out
        monkeypatch.setattr(scoring, name, route)

    bic = ScoreConfig(psi2=0.0)
    # n = 12, N = 20 000: the transform's 12 * 2^12 additions against M * U
    data = sample(random_network(12, 2, seed=7000), 20_000, seed=8)
    rows["distinct"] = _distinct_rows(data.rows)
    u = rows["distinct"][0].shape[1]
    admitted = [m * u >= scoring._ZETA_WORK * (12 << 12) for m in (12, 132, 660)]
    assert admitted == [False, True, True]
    build_parent_set_scores(data, None, bic)
    assert routes == [("_bincount", (12, 1)), ("_zeta_count", (132, 2)),
                      ("_zeta_count", (660, 3))]

    # n = 18, N = 2000: the Gram products and bincounts of the parent rule
    routes.clear()
    data = sample(random_network(18, 2, seed=7000), 2000, seed=9)
    rows["distinct"] = _distinct_rows(data.rows)
    build_parent_set_scores(data, None, bic)
    assert routes == [("_bincount", (18, 1)), ("_gram_count", (306, 2)),
                      ("_gram_count", (2448, 3))]


@pytest.mark.parametrize("k", [1, 3])
def test_counts_above_the_transform_bound_never_form_the_histogram(monkeypatch, k):
    """At n = 25 a count whose work admits the transform takes a direct
    route instead: the transform's histogram would hold 2^25 float64 cells
    (256 MiB)."""
    def refuse(*args):
        raise AssertionError("the 2^n histogram was formed")

    monkeypatch.setattr(scoring, "_superset_sums", refuse)
    n = 25
    assert n == scoring._ZETA_MAX_N + 1
    data = sample(random_network(n, 2, seed=2500), 2000, seed=2501)
    bits, weights = _distinct_rows(data.rows)
    colsets = family_colsets(n, k)
    assert 10 ** 9 * bits.shape[1] >= scoring._ZETA_WORK * (n << n)
    got = _CountContext(bits, weights).count(colsets, work=10 ** 9)
    assert (got == _bincount(bits, weights, colsets)).all()


def test_zeta_count_temporaries_hold_the_histogram_and_one_chunk():
    # the strata of every pair given a separating set of two, at the largest
    # n whose 2000 rows admit them to the transform: at n = 21 even 2000
    # distinct rows fall short
    n, n_rows = 20, 2000
    data = sample(random_network(n, 2, seed=133), n_rows, seed=134)
    bits, weights = _distinct_rows(data.rows)
    colsets = np.array([
        (b, a, *sep) for a, b in combinations(range(n), 2)
        for sep in combinations([v for v in range(n) if v not in (a, b)], 2)
    ])
    assert len(colsets) * bits.shape[1] >= scoring._ZETA_WORK * (n << n)
    strata_21 = math.comb(21, 2) * math.comb(19, 2)
    assert strata_21 * n_rows < scoring._ZETA_WORK * (21 << 21)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = _zeta_count(colsets, _superset_sums(bits, weights))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (out[::97] == np.array([bincount_reference(data.rows, cs)
                                   for cs in colsets[::97]])).all()
    # beyond the (M, 2^k) result and the 8 MiB histogram
    histogram = 8 << n
    assert peak - out.nbytes - histogram < 2.5 * 2 ** 20, (
        (peak - out.nbytes - histogram) / 2 ** 20)


@pytest.mark.parametrize("k", [3, 4])
def test_gram_count_temporaries_stay_cache_sized(k):
    data = sample(random_network(18, 2, seed=131), 2000, seed=132)
    bits, weights = _distinct_rows(data.rows)
    assert bits.shape[1] > 1900
    if k == 3:  # the families of 18 children with two parents
        colsets = family_colsets(18, 3)
    else:  # the strata of every pair given a separating set of two
        colsets = np.array([
            (b, a, *sep) for a, b in combinations(range(18), 2)
            for sep in combinations([v for v in range(18) if v not in (a, b)], 2)
        ])
    ordered = _by_prefix(colsets, 18)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = _gram_count(bits, weights, colsets, *ordered)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # beyond the (M, 2^k) result: about 0.7 MiB at k = 3 and at k = 4
    assert peak - out.nbytes < 2.5 * 2 ** 20, (peak - out.nbytes) / 2 ** 20


def sampled_strata(n, size, rng):
    """Strata column sets (b, a, *S) with |S| = size: every pair of the
    other columns for 4 separating sets, so that groups hold many sets,
    then 300 drawn one at a time."""
    sets = []
    for _ in range(4):
        sep = rng.choice(n, size=size, replace=False).tolist()
        others = [v for v in range(n) if v not in sep]
        sets += [(b, a, *sep) for a, b in combinations(others, 2)]
    sets += [tuple(rng.choice(n, size=size + 2, replace=False)) for _ in range(300)]
    return np.array(sets)


@pytest.mark.parametrize("n", [24, 40])
@pytest.mark.parametrize("size", [2, 3])  # at 3, the Grams of two prefix columns are not held
def test_gram_count_matches_bincount_on_sampled_strata(n, size):
    data = sample(random_network(n, 2, seed=240 + n), 5000, seed=241 + n)
    bits, weights = _distinct_rows(data.rows)
    colsets = sampled_strata(n, size, np.random.default_rng(n + size))
    got = _gram_count(bits, weights, colsets, *_by_prefix(colsets, n))
    assert (got == _bincount(bits, weights, colsets)).all()


def test_gram_count_holds_at_most_one_plus_n_grams():
    n, k = 40, 5
    data = sample(random_network(n, 2, seed=4040), 5000, seed=4041)
    bits, weights = _distinct_rows(data.rows)
    # about 400 prefixes over every column and most column pairs: holding
    # the Grams of two columns as well would take C(40, 2) = 780 more
    colsets = sampled_strata(n, k - 2, np.random.default_rng(5))[-300:]
    ordered = _by_prefix(colsets, n)
    assert len(ordered[1]) > 250 and set(colsets[:, 2:].ravel()) == set(range(n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = _gram_count(bits, weights, colsets, *ordered)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (out == _bincount(bits, weights, colsets)).all()
    # beyond the result and the float copies of bits and weights: the held
    # Grams, one group's 2^(k-2) Grams, and 640 KiB for one product's
    # blocks, its row indices and numpy's small caches
    held = peak - out.nbytes - (n + 1) * bits.shape[1] * 8
    gram = n * n * 8
    assert held - (gram << (k - 2)) - 640 * 2 ** 10 <= (1 + n) * gram, held / gram


def strength_reference(states, probs, a, b, d):
    others = [v for v in range(states.shape[0]) if v not in (a, b)]
    best = math.inf
    for k in range(d + 1):
        for sep in combinations(others, k):
            mass = bincount_reference(states.T, (b, a, *sep), weights=probs)
            best = min(best, max([0.0] + [
                mutual_information(JointDist2x2(*(cell / cell.sum())))
                for cell in mass.reshape(-1, 4) if cell.sum() > 0.0
            ]))
    return best


def test_weighted_counts_and_edge_strength_match_per_set_reference(monkeypatch):
    net = random_network(7, 2, seed=111)
    states, probs = _joint_probabilities(net)
    rng = np.random.default_rng(112)
    colsets = np.array([rng.choice(7, size=4, replace=False) for _ in range(40)])
    want = np.array([bincount_reference(states.T, cs, weights=probs) for cs in colsets])
    assert (_bincount(states, probs, colsets) == want).all()

    # the batch takes np.log of raw masses, the reference math.log of
    # normalised cells: equal to rounding
    pairs = list(combinations(range(7), 2))
    for d in (0, 2):
        for (a, b), got in zip(pairs, edge_strengths(net, pairs, d), strict=True):
            assert got == pytest.approx(strength_reference(states, probs, a, b, d), abs=1e-15), (
                a, b, d)

    # X1 <- X0 -> X2 and a free X3, with dyadic probabilities so that every
    # sum and ratio is exact: X1 and X2 are dependent, and {X0}, a separating
    # set of size 1, makes them independent with MI exactly 0
    net = Network(Dag(4, []), theta={i: {} for i in range(4)}, bias={i: 0.0 for i in range(4)})
    states, _ = _joint_probabilities(net)
    x0, x1, x2, _ = states.astype(np.float64)
    probs = (0.5 * np.where(x1, 0.25 + 0.5 * x0, 0.75 - 0.5 * x0)
             * np.where(x2, 0.25 + 0.25 * x0, 0.75 - 0.25 * x0) * 0.5)
    monkeypatch.setattr(scoring, "_joint_probabilities", lambda net: (states, probs))
    shapes = []
    monkeypatch.setattr(scoring, "_bincount",
                        lambda bits, weights, colsets: shapes.append(colsets.shape)
                        or _bincount(bits, weights, colsets))
    assert strength_reference(states, probs, 1, 2, 0) > 0.0
    assert edge_strengths(net, [(1, 2)], 2) == [strength_reference(states, probs, 1, 2, 2)] == [0.0]
    # one count of the empty set, one of both sets of size 1; the size-2 set
    # {X0, X3} is never counted
    assert shapes == [(1, 2), (2, 3)]


def test_edge_strengths_enumerate_the_joint_once(monkeypatch):
    net = random_network(6, 2, seed=113)
    pairs = [(0, 1), (4, 2), (3, 5)]
    want = [edge_strengths(net, [pair], 2)[0] for pair in pairs]
    calls = []
    joint = scoring._joint_probabilities
    monkeypatch.setattr(scoring, "_joint_probabilities",
                        lambda net: calls.append(net) or joint(net))
    assert edge_strengths(net, pairs, 2) == want
    assert len(calls) == 1
    assert edge_strengths(net, iter(pairs), 2) == want
    assert edge_strengths(net, [], 2) == []


@pytest.mark.parametrize("psi2, d", [(0.0, 2), (1.0, 2), (1.0, 3)],
                         ids=["0.0", "1.0", "1.0-d3"])
def test_parent_set_scores_match_per_family_reference(table, psi2, d):
    data = sample(random_network(6, 2, seed=121), 500, seed=122)
    cfg = ScoreConfig(psi2=psi2, d=d)
    pst = build_parent_set_scores(data, table if psi2 else None, cfg)
    boosts = {
        (a, b): boost_reference(data, a, b, table, cfg.d) if psi2 else 0.0
        for a, b in combinations(range(6), 2)
    }
    assert pst.constant == pytest.approx(psi2 * sum(boosts.values()), rel=1e-12)
    # the batched boosts, charged in the order ll - kappa ln N 2^k - psi2 * sum
    batched = pair_boosts(data, table, cfg) if psi2 else boosts
    for i in range(6):
        others = [v for v in range(6) if v != i]
        families = [pa for k in range(d + 1) for pa in combinations(others, k)]
        assert list(pst.scores[i]) == [frozenset(pa) for pa in families]
        for pa in families:
            bic = family_ll_reference(data, i, pa) - cfg.kappa * math.log(500) * 2 ** len(pa)
            want = bic - psi2 * sum(boosts[tuple(sorted((i, j)))] for j in pa)
            assert pst.scores[i][frozenset(pa)] == pytest.approx(want, rel=1e-12)
            exact = bic - psi2 * sum(batched[tuple(sorted((i, j)))] for j in pa)
            assert pst.scores[i][frozenset(pa)] == exact


# ----------------------------------------------------------------- total score

def test_total_score_psi2_zero_is_bic(table):
    rng = np.random.default_rng(51)
    cfg = ScoreConfig(psi2=0.0)
    for trial in range(20):
        net = random_network(5, 2, seed=int(rng.integers(1 << 30)))
        data = sample(net, 120, seed=int(rng.integers(1 << 30)))
        g = random_network(5, 2, seed=int(rng.integers(1 << 30))).dag
        assert total_score(data, g, None, cfg) == pytest.approx(
            bic_reference(data, g), abs=1e-9
        )


def test_total_score_complete_dag_has_no_boosts(table):
    net = random_network(3, 2, seed=61)
    data = sample(net, 200, seed=62)
    complete = Dag(3, frozenset({(0, 1), (0, 2), (1, 2)}))
    cfg = ScoreConfig()
    with_boost = total_score(data, complete, table, cfg)
    bare = total_score(data, complete, None, ScoreConfig(psi2=0.0))
    assert with_boost == pytest.approx(bare, abs=1e-12)


def all_pairs_contract_cases():
    """(n, d, DAGs) for the contract below: random DAGs at n = 5-8, the
    complete DAG at n = 4 and the single node."""
    rng = np.random.default_rng(55)
    for n in range(5, 9):
        for d in (2, 3):
            dags = [Dag(n, frozenset())] + [
                random_network(n, d, seed=int(rng.integers(1 << 30))).dag for _ in range(4)]
            yield pytest.param(n, d, dags, id=f"n{n}-d{d}")
    yield pytest.param(4, 3, [Dag(4, frozenset(combinations(range(4), 2)))], id="complete-n4")
    yield pytest.param(1, 2, [Dag(1, frozenset())], id="n1")


@pytest.mark.parametrize("n, d, dags", all_pairs_contract_cases())
def test_total_score_adds_the_nonadjacent_pair_boosts(table, n, d, dags):
    # the boosted score is BIC plus the boosts pair_boosts gives, summed over
    # the nonadjacent pairs in pair order, to the last bit
    data = sample(random_network(n, 2, seed=90 + n), 400, seed=91 + n)
    cfg = ScoreConfig(d=d)
    boosts = pair_boosts(data, table, cfg)
    for dag in dags:
        bic = total_score(data, dag, None, replace(cfg, psi2=0.0))
        nonadjacent = sum(v for pair, v in boosts.items() if not dag.adjacent(*pair))
        assert total_score(data, dag, table, cfg) == bic + nonadjacent
        if len(dag.edges) == n * (n - 1) // 2:
            assert nonadjacent == 0


def test_total_score_refuses_a_dag_of_another_variable_count(table, four_rows):
    for cfg, tab in ((ScoreConfig(psi2=0.0), None), (ScoreConfig(), table)):
        with pytest.raises(ValueError, match="disagree on the variable count"):
            total_score(four_rows, Dag(3, frozenset()), tab, cfg)


def test_dag_score_refuses_a_dag_of_another_variable_count():
    data = sample(random_network(5, 2, 1), 300, 2)
    pst = build_parent_set_scores(data, None, ScoreConfig(psi2=0.0))
    for n in (3, 6):
        with pytest.raises(ValueError, match=f"^dag has {n} nodes and the score table has 5$"):
            pst.dag_score(Dag(n, frozenset()))


def test_total_score_rejects_in_degree_violation(table):
    net = random_network(4, 3, seed=71)
    data = sample(net, 100, seed=72)
    g = Dag(4, frozenset({(0, 3), (1, 3), (2, 3)}))
    with pytest.raises(ValueError):
        total_score(data, g, table, ScoreConfig(d=2))


# ------------------------------------------------------- decomposed score table

def test_reconstruction_identity_random_dags(table):
    net = random_network(5, 2, seed=3)
    data = sample(net, 300, seed=4)
    cfg = ScoreConfig()
    pst = build_parent_set_scores(data, table, cfg)
    for s in range(20):
        g = random_network(5, 2, seed=500 + s).dag
        assert pst.dag_score(g) == pytest.approx(
            total_score(data, g, table, cfg), abs=1e-9
        )


@pytest.mark.parametrize("psi2", [0.0, 1.0])
def test_covered_edge_reversal_keeps_the_score(table, psi2):
    # u -> v is covered when parents(v) = parents(u) + {u}; reversing it
    # gives a Markov-equivalent DAG. BIC is score-equivalent and the boost
    # reads only the skeleton, so both scores stay put.
    cfg = ScoreConfig(psi2=psi2)
    reversals = 0
    for seed in range(6):
        net = random_network(7, 2, seed=700 + seed)
        data = sample(net, 2000, seed=800 + seed)
        pst = build_parent_set_scores(data, table, cfg)
        dag = net.dag
        total, decomposed = total_score(data, dag, table, cfg), pst.dag_score(dag)
        for u, v in sorted(dag.edges):
            if set(dag.parents(v)) != {*dag.parents(u), u}:
                continue
            flipped = Dag(dag.n, dag.edges - {(u, v)} | {(v, u)})
            assert math.isclose(total_score(data, flipped, table, cfg), total,
                                rel_tol=1e-12)
            assert math.isclose(pst.dag_score(flipped), decomposed, rel_tol=1e-12)
            reversals += 1
    assert reversals >= 10


def test_parent_set_scores_psi2_zero_is_decomposed_bic():
    net = random_network(4, 2, seed=91)
    data = sample(net, 150, seed=92)
    cfg = ScoreConfig(psi2=0.0)
    pst = build_parent_set_scores(data, None, cfg)
    assert pst.constant == 0.0
    for s in range(10):
        g = random_network(4, 2, seed=900 + s).dag
        assert pst.dag_score(g) == pytest.approx(bic_reference(data, g), abs=1e-9)


def test_parent_set_scores_d_zero(table):
    net = random_network(4, 2, seed=93)
    data = sample(net, 150, seed=94)
    cfg = ScoreConfig(d=0)
    pst = build_parent_set_scores(data, table, cfg)
    assert all(list(fams) == [frozenset()] for fams in pst.scores.values())
    empty = Dag(4, frozenset())
    assert pst.dag_score(empty) == pytest.approx(
        total_score(data, empty, table, cfg), abs=1e-9
    )


def test_scores_file_roundtrip(tmp_path, table):
    net = random_network(4, 2, seed=97)
    data = sample(net, 100, seed=98)
    pst = build_parent_set_scores(data, table, ScoreConfig())
    path = tmp_path / "scores.txt"
    save_scores(pst, path)
    back = load_scores(path)
    assert back.n == pst.n
    assert back.constant == pst.constant
    for i in range(pst.n):
        assert back.scores[i] == pst.scores[i]
    g = random_network(4, 2, seed=99).dag
    assert back.dag_score(g) == pst.dag_score(g)


def load_scores_reference(path) -> ParentSetScoreTable:
    """load_scores as a plain per-line loop, every check in its order."""

    def numbers(ln, toks):
        try:
            ints, last = [int(t) for t in toks[:-1]], float(toks[-1])
            if math.isfinite(last):
                return ints, last
        except ValueError:
            pass
        raise ValueError(f"non-integer or non-finite number in scores line: {ln!r}")

    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"scores file {path} is empty")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "n" or head[2] != "constant":
        raise ValueError(f"bad scores header: {lines[0]!r}")
    (n,), constant = numbers(lines[0], head[1::2])
    if n < 1:
        raise ValueError(f"node count below 1 in scores header: {lines[0]!r}")
    scores = {}
    for ln in lines[1:]:
        ints, score = numbers(ln, ln.split())
        if len(ints) < 2 or len(ints) != ints[1] + 2:
            raise ValueError(f"bad scores line: {ln!r}")
        node, parents = ints[0], frozenset(ints[2:])
        if not all(0 <= v < n for v in (node, *parents)):
            raise ValueError(f"index outside 0..{n - 1} in scores line: {ln!r}")
        if node in parents or len(parents) != ints[1]:
            raise ValueError(f"node or parent repeated in scores line: {ln!r}")
        if parents in scores.setdefault(node, {}):
            raise ValueError(f"family listed twice in scores line: {ln!r}")
        scores[node][parents] = score
    if n > len(lines) - 1:
        raise ValueError(
            f"node count above the {len(lines) - 1} family lines in scores header: "
            f"{lines[0]!r}"
        )
    scores = {i: scores.get(i, {}) for i in range(n)}
    return ParentSetScoreTable(n=n, scores=scores, constant=constant)


def load_outcome(load, path):
    """What load gives for path: its error message, or the table with every
    float as its hex text and every node's families in file order."""
    try:
        pst = load(path)
    except ValueError as exc:
        return str(exc)
    families = {i: [(sorted(pa), s.hex()) for pa, s in fams.items()]
                for i, fams in pst.scores.items()}
    return pst.n, pst.constant.hex(), families


@pytest.mark.parametrize("body, message", [
    ("", "scores file {path} is empty"),
    ("\n \n", "scores file {path} is empty"),
    ("m 2 constant 0\n0 0 -1.5\n", "bad scores header: 'm 2 constant 0'"),
    ("n 2 const 0\n0 0 -1.5\n", "bad scores header: 'n 2 const 0'"),
    ("n 2 constant\n0 0 -1.5\n", "bad scores header: 'n 2 constant'"),
    ("n 2 constant 0\n0 0 -1.5\n2 0 -1.0\n",
     "index outside 0..1 in scores line: '2 0 -1.0'"),
    ("n 2 constant 0\n0 1 2 -1.5\n", "index outside 0..1 in scores line: '0 1 2 -1.5'"),
    ("n 3 constant 0\n0 1 3 -1.5\n", "index outside 0..2 in scores line: '0 1 3 -1.5'"),
    ("n 2 constant 0\n-1 0 -1.5\n", "index outside 0..1 in scores line: '-1 0 -1.5'"),
    ("n 2 constant 0\n0 1 99999999999999999999 -1.5\n",
     "index outside 0..1 in scores line: '0 1 99999999999999999999 -1.5'"),
    ("n 2 constant 0\n1 1 1 -1.5\n",
     "node or parent repeated in scores line: '1 1 1 -1.5'"),
    ("n 3 constant 0\n0 2 1 1 -1.0\n",
     "node or parent repeated in scores line: '0 2 1 1 -1.0'"),
    ("n 2 constant 0\n0 0 -1.5\n0 0 -1.25\n",
     "family listed twice in scores line: '0 0 -1.25'"),
    ("n 2 constant 0\n-1.5\n", "bad scores line: '-1.5'"),
    ("n 3 constant 0\n0 2 1 -1.0\n", "bad scores line: '0 2 1 -1.0'"),
    ("n 2 constant 0\n0 x -1.0\n",
     "non-integer or non-finite number in scores line: '0 x -1.0'"),
    ("n 2 constant 0\nx\n", "non-integer or non-finite number in scores line: 'x'"),
    ("n x constant 0\n", "non-integer or non-finite number in scores line: 'n x constant 0'"),
    ("n 2 constant 0\n0 0 nan\n",
     "non-integer or non-finite number in scores line: '0 0 nan'"),
    ("n 2 constant 0\n0 0 inf\n",
     "non-integer or non-finite number in scores line: '0 0 inf'"),
    ("n 2 constant nan\n0 0 -1.0\n",
     "non-integer or non-finite number in scores line: 'n 2 constant nan'"),
    ("n 0 constant 0\n", "node count below 1 in scores header: 'n 0 constant 0'"),
    ("n -1 constant 0\n", "node count below 1 in scores header: 'n -1 constant 0'"),
], ids=["empty", "blank", "header-word", "header-constant", "header-short", "node-range",
        "parent-range", "parent-at-n", "negative-node", "past-int64", "own-parent",
        "repeated-parent", "duplicate", "one-token", "k-disagrees", "non-integer",
        "one-bad-token", "non-integer-header", "nan", "inf", "nan-constant",
        "zero-nodes", "negative-nodes"])
def test_load_scores_rejects_bad_files(tmp_path, body, message):
    path = tmp_path / "scores.txt"
    path.write_text(body)
    with pytest.raises(ValueError) as info:
        load_scores(path)
    assert str(info.value) == message.format(path=path)
    assert load_outcome(load_scores_reference, path) == str(info.value)


def test_load_scores_refuses_more_nodes_than_family_lines(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_text("n 1000000000000 constant 0\n0 0 -1.0\n")
    with pytest.raises(ValueError, match=re.escape(
            "node count above the 1 family lines in scores header: "
            "'n 1000000000000 constant 0'")):
        load_scores(path)
    # a node count at the number of family lines loads, a gap left empty
    path.write_text("n 2 constant 0\n0 0 -1.0\n0 1 1 -2.0\n")
    assert load_scores(path).scores == {0: {frozenset(): -1.0, frozenset({1}): -2.0}, 1: {}}


def test_load_scores_ignores_a_bom(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_bytes(b"\xef\xbb\xbfn 1 constant 0\n0 0 -1.5\n")
    pst = load_scores(path)
    assert (pst.n, pst.constant, pst.scores) == (1, 0.0, {0: {frozenset(): -1.5}})


def test_load_scores_names_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "scores.txt"
    path.write_bytes(b"n 1 constant 0\n0 0 \xff1\n")
    with pytest.raises(ValueError) as info:
        load_scores(path)
    assert str(info.value) == f"{path} line 2: byte 0xff is not UTF-8 (invalid start byte)"


# one-line mutations: a token replaced, dropped or repeated, or the line
# repeated or dropped
_TOKENS = ["x", "", "-1", "0", "1", "2", "5", "1.5", "-2.5e3", "nan", "-inf", "1e999",
           "+1", "1_0", "0x1", "\u0663", "99999999999999999999", "-0"]


def _mutate(lines: list[str], rng) -> list[str]:
    lines = list(lines)
    at = int(rng.integers(len(lines)))
    toks = lines[at].split()
    kind = int(rng.integers(5))
    if kind == 0:
        toks[int(rng.integers(len(toks)))] = _TOKENS[int(rng.integers(len(_TOKENS)))]
    elif kind == 1:
        del toks[int(rng.integers(len(toks)))]
    elif kind == 2:
        j = int(rng.integers(len(toks)))
        toks.insert(j, toks[j])
    elif kind == 3:
        lines.insert(at, lines[at])
        return lines
    else:
        del lines[at]
        return lines
    lines[at] = " ".join(toks)
    return lines


def test_load_scores_matches_the_reference_loop(tmp_path):
    rng = np.random.default_rng(2026)
    path = tmp_path / "scores.txt"
    for trial in range(40):
        n = int(rng.integers(1, 6))
        scores = {}
        for i in range(n):
            others = [v for v in range(n) if v != i]
            scores[i] = {
                frozenset(pa): float(rng.normal(scale=10.0 ** rng.integers(-3, 4)))
                for k in range(min(2, n - 1) + 1)
                for pa in combinations(others, k)
                if k == 0 or rng.random() < 0.7
            }
        save_scores(ParentSetScoreTable(n=n, scores=scores, constant=float(rng.normal())),
                    path)
        lines = path.read_text().splitlines()
        outcome = load_outcome(load_scores, path)
        assert not isinstance(outcome, str)
        assert outcome == load_outcome(load_scores_reference, path)
        for _ in range(10):
            path.write_text("\n".join(_mutate(lines, rng)) + "\n")
            assert load_outcome(load_scores, path) == load_outcome(load_scores_reference, path)


def test_save_scores_writes_the_documented_bytes(tmp_path):
    # nodes and families out of order, parents compared as numbers (2 < 10),
    # a node without families and three awkward floats
    pst = ParentSetScoreTable(n=11, constant=0.1, scores={
        3: {frozenset({2, 0}): 1e300, frozenset(): -0.0, frozenset({1}): 5e-324,
            frozenset({0}): -2.5},
        0: {frozenset({10}): 7.0, frozenset({2}): 0.5, frozenset(): -1.0},
        1: {},
        2: {frozenset({3, 1}): 1.25, frozenset({0, 10}): -3.0},
    })
    path = tmp_path / "scores.txt"
    save_scores(pst, path)
    assert path.read_bytes() == (
        b"n 11 constant 0.10000000000000001\n"
        b"0 0 -1\n"
        b"0 1 2 0.5\n"
        b"0 1 10 7\n"
        b"2 2 0 10 -3\n"
        b"2 2 1 3 1.25\n"
        b"3 0 -0\n"
        b"3 1 0 -2.5\n"
        b"3 1 1 4.9406564584124654e-324\n"
        b"3 2 0 2 1.0000000000000001e+300\n"
    )


def test_save_scores_reproduces_a_loaded_file(tmp_path):
    net = random_network(12, 2, seed=31)
    pst = build_parent_set_scores(sample(net, 500, seed=32), None, ScoreConfig(psi2=0.0))
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    save_scores(pst, first)
    save_scores(load_scores(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_score_table_missing_family():
    pst = ParentSetScoreTable(n=2, scores={0: {frozenset(): 0.0}, 1: {frozenset(): 0.0}})
    with pytest.raises(ValueError):
        pst.family_score(0, (1,))


def test_score_table_refuses_a_node_outside_its_range():
    with pytest.raises(ValueError) as info:
        ParentSetScoreTable(n=2, scores={0: {frozenset(): 0.0}, 5: {frozenset({1, 7}): 3.0}})
    assert str(info.value) == "score table node 5 outside 0..1"


@pytest.mark.parametrize("parents", [{7}, {1}, {-1}, {0, 2}])
def test_score_table_refuses_a_parent_that_is_no_other_node(parents):
    with pytest.raises(ValueError) as info:
        ParentSetScoreTable(n=2, scores={0: {frozenset(): 0.0},
                                         1: {frozenset(): 0.0, frozenset(parents): 1.0}})
    assert str(info.value) == f"node 1: parents {sorted(parents)} are not other nodes of 0..1"


@pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
def test_score_table_refuses_a_score_that_is_not_finite(score):
    with pytest.raises(ValueError) as info:
        ParentSetScoreTable(n=2, scores={0: {frozenset(): score, frozenset({1}): 1.0},
                                         1: {frozenset(): 0.0}})
    assert str(info.value) == f"node 0: parents [] score {score!r}, not finite"


@pytest.mark.parametrize("constant", [math.nan, math.inf, -math.inf])
def test_score_table_refuses_a_constant_that_is_not_finite(constant):
    """Taken in, a nan constant would give exact_dp a nan score, leave greedy
    no start it could accept and be saved in a file load_scores refuses."""
    with pytest.raises(ValueError) as info:
        ParentSetScoreTable(n=2, scores={0: {frozenset(): 0.0}, 1: {frozenset(): 0.0}},
                            constant=constant)
    assert str(info.value) == f"score table constant {constant!r}, not finite"


def test_score_table_gives_absent_nodes_no_families():
    pst = ParentSetScoreTable(n=3, scores={1: {frozenset(): -1.0}})
    assert pst.scores == {0: {}, 1: {frozenset(): -1.0}, 2: {}}


# ---------------------------------------------------------------- edge strength

def test_edge_strength_disconnected_pair_is_zero():
    net = random_network(4, 0, seed=101)
    # an exact 0 would be a rounding outcome for an independent pair
    assert edge_strengths(net, [(0, 1)], 2) == pytest.approx([0.0], abs=1e-15)


def test_edge_strength_rejects_a_negative_d():
    # an empty range of set sizes would otherwise read as an inf strength
    net = random_network(4, 1, seed=101)
    with pytest.raises(ValueError, match="^d=-1 must be an integer >= 0$"):
        edge_strengths(net, [(0, 1)], -1)


@pytest.mark.parametrize("pair", [(0, 0), (0, 5)])
def test_edge_strength_rejects_a_pair_outside_the_network(pair):
    net = random_network(3, 1, seed=101)
    with pytest.raises(ValueError) as info:
        edge_strengths(net, [pair], 1)
    assert str(info.value) == f"bad pair {pair}"


def test_edge_strength_vacuous_edge_is_zero():
    net = Network(
        dag=Dag(2, frozenset({(0, 1)})), theta={0: {}, 1: {0: 0.0}},
        bias={0: 0.0, 1: 0.0},
    )
    assert edge_strengths(net, [(0, 1)], 2) == pytest.approx([0.0], abs=1e-15)


def test_edge_strength_two_node_oracle():
    net = Network(
        dag=Dag(2, frozenset({(0, 1)})), theta={0: {}, 1: {0: 2.0}},
        bias={0: 0.0, 1: 0.0},
    )
    # oracle: enumerate the four states from the sigmoid values
    s2 = 1.0 / (1.0 + math.exp(-2.0))
    cells = [0.25, 0.25, 0.5 * (1 - s2), 0.5 * s2]
    pa = (0.5, 0.5)
    pb = (cells[0] + cells[2], cells[1] + cells[3])
    expect = sum(
        c * math.log(c / (pa[a] * pb[b]))
        for (a, b), c in zip(((0, 0), (0, 1), (1, 0), (1, 1)), cells)
    )
    assert edge_strengths(net, [(0, 1)], 2) == pytest.approx([expect], abs=1e-12)


def test_edge_strength_separated_by_conditioning():
    # chain A -> C -> B: conditioning on C separates the endpoints
    net = Network(
        dag=Dag(3, frozenset({(0, 2), (2, 1)})),
        theta={0: {}, 1: {2: 3.0}, 2: {0: 3.0}},
        bias={0: 0.0, 1: -1.5, 2: -1.5},
    )
    assert edge_strengths(net, [(0, 1)], 1) == pytest.approx([0.0], abs=1e-12)
    assert edge_strengths(net, [(0, 1)], 0)[0] > 0.01


def test_edge_strength_rejects_large_network():
    net = random_network(21, 2, seed=103)
    with pytest.raises(ValueError):
        edge_strengths(net, [(0, 1)], 2)


# -------------------------------------------------------------------- config

def test_score_config_validation():
    with pytest.raises(ValueError):
        ScoreConfig(eta=0.0)
    with pytest.raises(ValueError):
        ScoreConfig(kappa=0.0)
    with pytest.raises(ValueError):
        ScoreConfig(psi2=-1.0)
    with pytest.raises(ValueError):
        ScoreConfig(d=-1)
    for key in ("eta", "kappa", "psi2"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{key}={value!r} must be finite"):
                ScoreConfig(**{key: value})
