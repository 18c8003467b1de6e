import logging
import math
import re
from itertools import combinations

import numpy as np
import pytest

from bnboost.beta import build_table, query_neg_ln_beta
from bnboost.data import BinaryDataset, Dag, Network, random_network, sample
from bnboost.dist2x2 import mi_from_counts
from bnboost.scoring import (
    ParentSetScoreTable,
    ScoreConfig,
    _contingency,
    build_parent_set_scores,
    dim,
    edge_boost,
    edge_strength,
    load_scores,
    log_likelihood,
    pair_boosts,
    save_scores,
    total_score,
)

LN_HALF = math.log(0.5)


@pytest.fixture(scope="module")
def table():
    return build_table(
        0.01,
        N_grid=[20, 50, 100, 200, 500, 1000, 2000, 5000],
        samples=30_000,
        seed=1,
    )


@pytest.fixture
def four_rows():
    return BinaryDataset(("A", "B"), np.array([[0, 0], [0, 0], [1, 1], [1, 1]]))


def bic_reference(data, dag):
    """Independent BIC oracle: plain-python counts, psi1 = ln(N)/2."""
    n_rows = data.n_rows
    ll = 0.0
    params = 0
    for i in range(dag.n):
        pa = dag.parents(i)
        counts = {}
        for row in data.rows:
            key = tuple(int(row[p]) for p in pa)
            c = counts.setdefault(key, [0, 0])
            c[int(row[i])] += 1
        params += 2 ** len(pa)
        for c0, c1 in counts.values():
            tot = c0 + c1
            for c in (c0, c1):
                if c:
                    ll += c * math.log(c / tot)
    return ll - (math.log(n_rows) / 2) * params


def boost_reference(data, a, b, table, d):
    """Independent boost oracle: one scalar query per stratum, the min over
    assignments (0 once one is unseen), the max over separating sets."""
    rest = [v for v in range(data.n_vars) if v not in (a, b)]
    best = 0.0
    for k in range(min(d, len(rest)) + 1):
        for sep in combinations(rest, k):
            worst = math.inf
            tables = _contingency(data.rows, (b, a, *sep)).reshape(-1, 4)
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


# ------------------------------------------------------------------ edge boost

def test_boost_zero_for_dependent_pair(table, four_rows):
    cfg = ScoreConfig()
    assert edge_boost(four_rows, 0, 1, table, cfg, Dag(2, frozenset())) == 0.0


def test_boost_rejects_adjacent_pair(table, four_rows):
    with pytest.raises(ValueError):
        edge_boost(four_rows, 0, 1, table, ScoreConfig(), Dag(2, frozenset({(0, 1)})))


def test_boost_at_least_unconditional_term(table):
    # the empty set always belongs to the bounded-size collection, so the
    # max-min can only improve on the marginal test
    net = random_network(4, 1, seed=31)
    data = sample(net, 400, seed=32)
    cfg = ScoreConfig()
    empty = Dag(4, frozenset())
    for a, b in combinations(range(4), 2):
        full = edge_boost(data, a, b, table, cfg, empty)
        only_empty = edge_boost(data, a, b, table, ScoreConfig(d=0), empty)
        assert full >= only_empty - 1e-12


def test_boost_grows_with_sample_count(table):
    net = Network(dag=Dag(2, frozenset()), theta={0: {}, 1: {}}, bias={0: 0.0, 1: 0.0})
    cfg = ScoreConfig()
    empty = Dag(2, frozenset())
    wins = 0
    for s in range(10):
        small = sample(net, 500, seed=100 + s)
        large = sample(net, 2000, seed=200 + s)
        wins += edge_boost(large, 0, 1, table, cfg, empty) > edge_boost(
            small, 0, 1, table, cfg, empty
        )
    assert wins >= 9


def test_boost_symmetric_and_graph_independent(table):
    net = random_network(5, 2, seed=41)
    data = sample(net, 300, seed=42)
    cfg = ScoreConfig()
    g1 = Dag(5, frozenset())
    g2 = Dag(5, frozenset({(2, 3), (0, 4)}))
    for a, b in combinations(range(5), 2):
        if g2.adjacent(a, b):
            continue
        v = edge_boost(data, a, b, table, cfg, g1)
        assert edge_boost(data, b, a, table, cfg, g1) == pytest.approx(v, abs=1e-12)
        assert edge_boost(data, a, b, table, cfg, g2) == pytest.approx(v, abs=1e-12)


def test_boost_unobserved_assignment_contributes_zero(table):
    # S = {C} with C constant: the unobserved C=1 branch zeroes that set,
    # and with d=1 the only other set is the empty one
    rows = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0], [1, 1, 0]] * 10)
    data = BinaryDataset(("A", "B", "C"), rows)
    cfg = ScoreConfig(d=1)
    empty = Dag(3, frozenset())
    boost = edge_boost(data, 0, 1, table, cfg, empty)
    only_empty = edge_boost(data, 0, 1, table, ScoreConfig(d=0), empty)
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
        (_contingency(unseen.rows, sep) == 0).any()
        for sep in combinations(range(unseen.n_vars), 2)
    )
    chain = strong_chain(2000, seed=63)
    for a, b in ((0, 1), (1, 2)):
        assert mi_from_counts(*_contingency(chain.rows, (b, a)).tolist()) > 0.1


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


@pytest.mark.parametrize("body, bad_line", [
    ("", None),
    ("n 2 constant 0\n0 0 -1.5\n2 0 -1.0\n", "2 0 -1.0"),
    ("n 2 constant 0\n0 1 2 -1.5\n", "0 1 2 -1.5"),
    ("n 2 constant 0\n1 1 1 -1.5\n", "1 1 1 -1.5"),
    ("n 2 constant 0\n0 0 -1.5\n0 0 -1.25\n", "0 0 -1.25"),
    ("n 2 constant 0\n0 x -1.0\n", "0 x -1.0"),
    ("n x constant 0\n", "n x constant 0"),
    ("n 2 constant 0\n0 0 nan\n", "0 0 nan"),
    ("n 2 constant 0\n0 0 inf\n", "0 0 inf"),
    ("n 2 constant nan\n0 0 -1.0\n", "n 2 constant nan"),
    ("n 0 constant 0\n", "n 0 constant 0"),
    ("n -1 constant 0\n", "n -1 constant 0"),
], ids=["empty", "node-range", "parent-range", "own-parent", "duplicate",
        "non-integer", "non-integer-header", "nan", "inf", "nan-constant",
        "zero-nodes", "negative-nodes"])
def test_load_scores_rejects_bad_files(tmp_path, body, bad_line):
    path = tmp_path / "scores.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=re.escape(bad_line or "empty")):
        load_scores(path)


def test_score_table_missing_family():
    pst = ParentSetScoreTable(n=2, scores={0: {frozenset(): 0.0}, 1: {frozenset(): 0.0}})
    with pytest.raises(ValueError):
        pst.family_score(0, (1,))


# ---------------------------------------------------------------- edge strength

def test_edge_strength_disconnected_pair_is_zero():
    net = random_network(4, 0, seed=101)
    assert edge_strength(net, 0, 1, 2) == 0.0


def test_edge_strength_vacuous_edge_is_zero():
    net = Network(
        dag=Dag(2, frozenset({(0, 1)})), theta={0: {}, 1: {0: 0.0}},
        bias={0: 0.0, 1: 0.0},
    )
    assert edge_strength(net, 0, 1, 2) == pytest.approx(0.0, abs=1e-15)


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
    assert edge_strength(net, 0, 1, 2) == pytest.approx(expect, abs=1e-12)


def test_edge_strength_separated_by_conditioning():
    # chain A -> C -> B: conditioning on C separates the endpoints
    net = Network(
        dag=Dag(3, frozenset({(0, 2), (2, 1)})),
        theta={0: {}, 1: {2: 3.0}, 2: {0: 3.0}},
        bias={0: 0.0, 1: -1.5, 2: -1.5},
    )
    assert edge_strength(net, 0, 1, 1) == pytest.approx(0.0, abs=1e-12)
    assert edge_strength(net, 0, 1, 0) > 0.01


def test_edge_strength_rejects_large_network():
    net = random_network(21, 2, seed=103)
    with pytest.raises(ValueError):
        edge_strength(net, 0, 1, 2)


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
