import logging
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from bnboost import search
from bnboost.beta import build_table
from bnboost.data import Dag, random_network, sample
from bnboost.evaluate import dag_to_cpdag
from bnboost.scoring import ParentSetScoreTable, ScoreConfig, build_parent_set_scores
from bnboost.search import (
    _bits, _by_mask, _dp_bytes, _kept_families, _subset_dp,
    all_dags, brute_force, exact_dp, greedy_hill_climb,
)


def random_table(n, d, rng, scale=3.0, constant=0.0, per_parent=0.0):
    """iid normal family scores, less per_parent for each parent."""
    scores = {}
    for i in range(n):
        others = [v for v in range(n) if v != i]
        fams = {}
        for k in range(min(d, len(others)) + 1):
            for pa in combinations(others, k):
                fams[frozenset(pa)] = float(rng.normal() * scale) - per_parent * k
        scores[i] = fams
    return ParentSetScoreTable(n=n, scores=scores, constant=constant)


def block_table(sizes, d, rng):
    """A table on consecutive blocks of nodes, and each block's own table.
    A family with parents outside the child's block scores below the family
    of its in-block parents, so no optimum crosses a block."""
    n = sum(sizes)
    starts = np.cumsum([0, *sizes])
    blocks = [random_table(k, d, rng) for k in sizes]
    scores = {}
    for b, block in enumerate(blocks):
        lo, hi = int(starts[b]), int(starts[b + 1])
        for i in range(lo, hi):
            others = [v for v in range(n) if v != i]
            fams = {}
            for k in range(min(d, n - 1) + 1):
                for pa in combinations(others, k):
                    inside = frozenset(p - lo for p in pa if lo <= p < hi)
                    outside = k - len(inside)
                    fams[frozenset(pa)] = (
                        block.scores[i - lo][inside] - outside * (1.0 + abs(rng.normal()))
                    )
            scores[i] = fams
    return ParentSetScoreTable(n=n, scores=scores), blocks


def chain_table(n):
    """Only the empty families and {i - 1}, which beats node i's empty one:
    the kept families link all n nodes into one component."""
    scores = {i: {frozenset(): 0.0} for i in range(n)}
    for i in range(1, n):
        scores[i][frozenset({i - 1})] = 1.0
    return ParentSetScoreTable(n=n, scores=scores)


def subset_dp_reference(fams):
    """Independent oracle: the two-phase subset DP. Phase 1 fills bps, each
    node's best family score inside every subset (n * 2^n float64); phase 2
    takes the best sink per subset, the lowest index on a tie. Each peeled
    sink takes the family that scores bps inside the rest, fewest parents,
    then the smallest sorted list."""
    n = len(fams)
    size = 1 << n
    bps = np.full((n, size), -np.inf)
    best = np.full(size, -np.inf)
    sink = np.full(size, -1, dtype=np.int8)
    masks = np.arange(size, dtype=np.int64)
    pop = np.bitwise_count(masks)
    for i in range(n):
        bps[i, list(fams[i])] = list(fams[i].values())
        for b in range(n):
            if b != i:
                half = bps[i].reshape(-1, 2, 1 << b)  # [:, 1] holds the sets with b
                np.maximum(half[:, 1], half[:, 0], out=half[:, 1])
    best[0] = 0.0
    for k in range(1, n + 1):
        layer = masks[pop == k]
        for i in range(n):
            bit = 1 << i
            sel = layer[(layer & bit) != 0]
            rest = sel ^ bit
            cand = best[rest] + bps[i][rest]
            upd = cand > best[sel]
            best[sel[upd]] = cand[upd]
            sink[sel[upd]] = i
    if not math.isfinite(best[size - 1]):
        raise ValueError("the score table covers no complete DAG")
    parents = [0] * n
    u = size - 1
    while u:
        i = int(sink[u])
        u ^= 1 << i
        parents[i] = min(
            (m for m, s in fams[i].items() if s == bps[i, u] and not m & ~u),
            key=lambda m: (m.bit_count(), _bits(m)),
        )
    return parents


def subset_dp_dag(table):
    """The reference DP's optimum over the whole table, unsplit and unpruned."""
    n = table.n
    masks = subset_dp_reference([_by_mask(table.scores.get(i, {}), range(n)) for i in range(n)])
    return Dag(n, frozenset((p, i) for i, m in enumerate(masks) for p in range(n) if m >> p & 1))


def table_fams(table, prune):
    """Each node's families keyed by parent mask, pruned by exact_dp's rule or raw."""
    n = table.n
    return [
        _by_mask(_kept_families(f) if prune else f, range(n))
        for f in (table.scores.get(i, {}) for i in range(n))
    ]


def dp_outcome(dp, fams):
    """The parent masks dp returns, or the message of the ValueError it raises."""
    try:
        return dp(fams)
    except ValueError as exc:
        return str(exc)


def dag_count_recurrence(n):
    """Independent oracle: labeled-DAG counts via the alternating recurrence."""
    a = [1]
    for m in range(1, n + 1):
        a.append(
            sum(
                (-1) ** (k + 1) * math.comb(m, k) * 2 ** (k * (m - k)) * a[m - k]
                for k in range(1, m + 1)
            )
        )
    return a[n]


def test_all_dags_counts_match_recurrence():
    for n in (1, 2, 3, 4):
        assert len(all_dags(n)) == dag_count_recurrence(n)


def test_exact_dp_single_node():
    table = ParentSetScoreTable(n=1, scores={0: {frozenset(): -1.5}})
    res = exact_dp(table)
    assert res.dag.edges == frozenset()
    assert res.score == -1.5


def test_exact_dp_matches_brute_force():
    rng = np.random.default_rng(1234)
    for trial in range(25):
        table = random_table(4, 3, rng, constant=float(rng.normal()))
        a = exact_dp(table)
        b = brute_force(table)
        assert a.score == pytest.approx(b.score, abs=1e-9)
        assert table.dag_score(a.dag) == pytest.approx(a.score, abs=1e-9)


def test_exact_dp_crafted_v_structure():
    scores = {
        0: {frozenset(): 0.0, frozenset({1}): -1.0, frozenset({2}): -1.0,
            frozenset({1, 2}): -1.0},
        1: {frozenset(): 0.0, frozenset({0}): -1.0, frozenset({2}): -1.0,
            frozenset({0, 2}): -1.0},
        2: {frozenset(): 0.0, frozenset({0}): 1.0, frozenset({1}): 1.0,
            frozenset({0, 1}): 5.0},
    }
    table = ParentSetScoreTable(n=3, scores=scores)
    res = exact_dp(table)
    assert res.dag.edges == frozenset({(0, 2), (1, 2)})
    assert res.score == 5.0
    assert brute_force(table).dag.edges == res.dag.edges


def test_exact_dp_respects_coverage():
    rng = np.random.default_rng(7)
    for trial in range(10):
        table = random_table(5, 1, rng)
        res = exact_dp(table)
        res.dag.check_in_degree(1)


def test_exact_dp_beats_random_dags():
    rng = np.random.default_rng(88)
    table = random_table(6, 2, rng)
    best = exact_dp(table).score
    for s in range(1000):
        g = random_network(6, 2, seed=s).dag
        assert best >= table.dag_score(g) - 1e-9


def test_exact_dp_relabeling_invariance():
    rng = np.random.default_rng(5)
    table = random_table(5, 2, rng)
    perm = [3, 0, 4, 1, 2]
    scores2 = {
        perm[i]: {frozenset(perm[p] for p in pa): s for pa, s in fams.items()}
        for i, fams in table.scores.items()
    }
    table2 = ParentSetScoreTable(n=5, scores=scores2, constant=table.constant)
    assert exact_dp(table2).score == pytest.approx(exact_dp(table).score, abs=1e-9)


@pytest.mark.parametrize("tied, edges", [
    # node 0's families inside {1, 2} tie: fewest parents, then smallest list
    (0, {(1, 0)}),
    # sinks tie first: the lowest index (0) is peeled last, so node 2 then
    # chooses inside {1}
    (2, {(1, 2)}),
])
def test_exact_dp_tie_breaks(tied, edges):
    others = [v for v in range(3) if v != tied]
    scores = {i: {frozenset(): 0.0} for i in range(3)}
    for k in (1, 2):
        for pa in combinations(others, k):
            scores[tied][frozenset(pa)] = 1.0
    res = exact_dp(ParentSetScoreTable(n=3, scores=scores))
    assert res.dag.edges == frozenset(edges)
    assert res.score == 1.0


def test_exact_dp_tie_takes_the_smallest_sorted_list_not_the_smallest_mask():
    # node 0's {1, 4} (mask 18) and {2, 3} (mask 12) tie; [1, 4] < [2, 3] wins
    scores = {i: {frozenset(): 0.0} for i in range(5)}
    scores[0].update({frozenset({1, 4}): 1.0, frozenset({2, 3}): 1.0})
    table = ParentSetScoreTable(n=5, scores=scores)
    res = exact_dp(table)
    assert res.dag.edges == frozenset({(1, 0), (4, 0)})
    assert res.score == 1.0
    assert brute_force(table).dag.edges == res.dag.edges


def test_exact_dp_rejects_oversize():
    # the check comes before any DP array: 9 * 2^25 bytes plus the scan of
    # (8 * 2 + 72) * comb(24, 12) bytes, as a node keeps at most 2 families
    table = chain_table(25)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"n=25 above .* about 0\.54 GB"):
            exact_dp(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_exact_dp_memory_error_states_need(monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    table = chain_table(20)
    monkeypatch.setattr(np, "full", no_memory)
    with pytest.raises(MemoryError, match=r"n=20 needs about 0\.018 GB"):
        exact_dp(table)


def test_exact_dp_memory_error_inside_a_layer_states_need(monkeypatch):
    # the up-front arrays fit; the scan of the third (layer, sink) runs out
    calls = []
    argmin = np.argmin

    def no_memory_on_the_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise MemoryError
        return argmin(*args, **kwargs)

    monkeypatch.setattr(np, "argmin", no_memory_on_the_third)
    with pytest.raises(MemoryError, match=r"n=20 needs about 0\.018 GB"):
        exact_dp(chain_table(20))
    assert len(calls) == 3


def synthetic_component(n, f, rng):
    """n nodes, each with the empty family and f - 1 random families of one
    or two parents, normal scores, keyed by parent mask."""
    fams = []
    for i in range(n):
        others = [v for v in range(n) if v != i]
        scores = {0: float(rng.normal())}
        while len(scores) < f:
            pa = rng.choice(others, size=int(rng.integers(1, 3)), replace=False)
            scores[sum(1 << int(p) for p in pa)] = float(rng.normal())
        fams.append(scores)
    return fams


def test_subset_dp_peak_memory_stays_under_the_statement():
    # an n * 2^n table alone (38 MB at 18 nodes) would break the bound
    fams = synthetic_component(18, 12, np.random.default_rng(18))
    tracemalloc.start()
    try:
        _subset_dp(fams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 18 << 18 < peak < _dp_bytes(18, 12)


def test_exact_dp_solves_small_components_above_the_cap():
    rng = np.random.default_rng(30)
    table, blocks = block_table([10, 10, 10], 2, rng)
    res = exact_dp(table)
    optima = [b.dag_score(subset_dp_dag(b)) for b in blocks]
    assert res.score == pytest.approx(sum(optima), rel=1e-12)
    assert all((u < 10) == (v < 10) and (u < 20) == (v < 20) for u, v in res.dag.edges)


def test_exact_dp_rejects_a_node_without_families():
    table = ParentSetScoreTable(n=3, scores={0: {frozenset(): 0.0}, 1: {frozenset(): 0.0}})
    with pytest.raises(ValueError, match="covers no complete DAG"):
        exact_dp(table)


def test_all_dags_refuses_more_nodes_than_its_cap():
    with pytest.raises(ValueError) as info:
        all_dags(6)
    assert str(info.value) == "n=6 above the enumeration cap 5"


def test_brute_force_refuses_a_table_whose_families_all_close_a_cycle():
    table = ParentSetScoreTable(n=2, scores={0: {frozenset({1}): 0.0},
                                             1: {frozenset({0}): 0.0}})
    with pytest.raises(ValueError) as info:
        brute_force(table)
    assert str(info.value) == "the score table covers no complete DAG"


def drop_families(table, frac, rng):
    """The table less a random share of its nonempty families."""
    return ParentSetScoreTable(n=table.n, scores={
        i: {pa: s for pa, s in fams.items() if not pa or rng.random() >= frac}
        for i, fams in table.scores.items()
    })


@pytest.mark.parametrize("d", [1, 2])
def test_exact_dp_matches_the_unsplit_dp(d):
    rng = np.random.default_rng(600 + d)
    tables = []
    for n in range(6, 15):
        tables.append(random_table(n, d, rng, constant=float(rng.normal())))
        tables.append(random_table(n, d, rng, per_parent=6.0))
        tables.append(drop_families(random_table(n, d, rng, per_parent=3.0), 0.3, rng))
        tables.append(block_table([n // 3, n - n // 3], d, rng)[0])
    for table in tables:
        res = exact_dp(table)
        oracle = subset_dp_dag(table)
        assert res.score == pytest.approx(table.dag_score(oracle), rel=1e-12, abs=0.0)
        assert dag_to_cpdag(res.dag) == dag_to_cpdag(oracle)


def sweep_table(n, d, rng, ties):
    """A random table: integer scores in -2..2 (so families tie) or normal
    ones; about 20% of the nonempty and 2% of the empty families dropped."""
    scores = {}
    for i in range(n):
        others = [v for v in range(n) if v != i]
        fams = {}
        for k in range(min(d, n - 1) + 1):
            for pa in combinations(others, k):
                if rng.random() >= (0.2 if k else 0.02):
                    fams[frozenset(pa)] = (
                        float(rng.integers(-2, 3)) if ties else float(rng.normal())
                    )
        scores[i] = fams
    return ParentSetScoreTable(n=n, scores=scores)


def test_subset_dp_matches_the_two_phase_reference():
    rng = np.random.default_rng(2013)
    tables = [
        sweep_table(n, d, rng, ties)
        for n in range(1, 10) for d in range(4) for ties in (True, False) for _ in range(8)
    ]
    beta = build_table(0.01, N_grid=[40, 80, 200], gamma_grid=[0.0, 0.002, 0.005])
    for n in range(8, 13):
        data = sample(random_network(n, 2, seed=900 + n), 2000, seed=1900 + n)
        tables.append(build_parent_set_scores(data, None, ScoreConfig(psi2=0.0)))
        tables.append(build_parent_set_scores(data, beta, ScoreConfig(psi2=1.0)))
    errors = 0
    for table in tables:
        for prune in (False, True):
            fams = table_fams(table, prune)
            got = dp_outcome(_subset_dp, fams)
            assert got == dp_outcome(subset_dp_reference, fams)
            errors += isinstance(got, str)
    assert 0 < errors < len(tables)


def kept_by_definition(fams):
    """Independent oracle: the families that score strictly above every
    proper subset of their parents that the table has."""
    return {pa: s for pa, s in fams.items() if all(fams[q] < s for q in fams if q < pa)}


def test_kept_families_match_their_definition():
    rng = np.random.default_rng(24)
    tables = [
        sweep_table(n, d, rng, ties)
        for n in range(1, 10) for d in range(4) for ties in (True, False) for _ in range(4)
    ]
    beta = build_table(0.01, N_grid=[40, 80, 200], gamma_grid=[0.0, 0.002, 0.005])
    for n in range(6, 13):
        data = sample(random_network(n, 2, seed=700 + n), 1000, seed=1700 + n)
        tables.append(build_parent_set_scores(data, None, ScoreConfig(psi2=0.0)))
        tables.append(build_parent_set_scores(data, beta, ScoreConfig(psi2=1.0)))
    # every parent adds a positive amount, so every family beats its subsets
    weight = rng.uniform(1.0, 2.0, size=(12, 12))
    dense = {
        frozenset(pa): float(weight[0, list(pa)].sum())
        for k in range(4) for pa in combinations(range(1, 12), k)
    }
    assert _kept_families(dense) == dense
    kept = total = 0
    for fams in [t.scores.get(i, {}) for t in tables for i in range(t.n)]:
        got = _kept_families(fams)
        assert got == kept_by_definition(fams)
        # the tables list small families first; the rule must not rely on it
        assert _kept_families(dict(reversed(fams.items()))) == got
        kept, total = kept + len(got), total + len(fams)
    assert 0 < kept < total


def fs(*parents):
    return frozenset(parents)


def test_kept_families_drop_the_families_that_tie_the_empty_family():
    # {1} ties the empty family and {1, 2} ties {2}; {3} scores below both
    fams = {fs(): -1.0, fs(1): -1.0, fs(2): -0.5, fs(1, 2): -0.5, fs(3): -2.0}
    assert _kept_families(fams) == {fs(): -1.0, fs(2): -0.5}


def test_kept_families_without_the_empty_family_keep_the_rank_rule():
    # no floor is made up: {1} stays although it scores lowest, {1, 2} loses
    # to {2}, {2, 3} ties {2}, and {1, 3} beats {1} with {3} absent
    fams = {fs(1): -3.0, fs(2): -1.0, fs(1, 2): -2.0, fs(1, 3): -0.5, fs(2, 3): -1.0}
    assert _kept_families(fams) == {fs(1): -3.0, fs(2): -1.0, fs(1, 3): -0.5}


def test_kept_families_when_the_empty_family_ranks_last():
    fams = {fs(): -5.0, fs(1): -1.0, fs(2): -2.0, fs(3): -4.0,
            fs(1, 2): -1.5, fs(1, 3): -0.5}
    assert _kept_families(fams) == {fs(): -5.0, fs(1): -1.0, fs(2): -2.0,
                                    fs(3): -4.0, fs(1, 3): -0.5}


def test_exact_dp_logs_the_split_at_debug(caplog):
    # node 2's {0, 1} ties with {0}, and node 1's {2} loses to its empty family
    scores = {
        0: {frozenset(): 0.0},
        1: {frozenset(): 0.0, frozenset({2}): -1.0},
        2: {frozenset(): 0.0, frozenset({0}): 2.0, frozenset({0, 1}): 2.0},
        3: {frozenset(): 0.0},
    }
    table = ParentSetScoreTable(n=4, scores=scores)
    with caplog.at_level(logging.INFO, logger="bnboost.search"):
        exact_dp(table)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="bnboost.search"):
        res = exact_dp(table)
    (record,) = caplog.records
    assert record.getMessage() == (
        "exact_dp: 5 of 7 families kept, 3 components, the largest of 2 nodes"
    )
    assert res.dag.edges == frozenset({(0, 2)})


def test_brute_force_two_nodes():
    scores = {
        0: {frozenset(): 0.0, frozenset({1}): 2.0},
        1: {frozenset(): 0.0, frozenset({0}): 1.0},
    }
    table = ParentSetScoreTable(n=2, scores=scores)
    res = brute_force(table)
    assert res.dag.edges == frozenset({(1, 0)})
    assert res.score == 2.0


def test_brute_force_tie_breaks_lexicographically():
    scores = {
        0: {frozenset(): 0.0, frozenset({1}): 1.0},
        1: {frozenset(): 0.0, frozenset({0}): 1.0},
    }
    table = ParentSetScoreTable(n=2, scores=scores)
    # A->B and B->A tie; (0, 1) sorts before (1, 0)
    assert brute_force(table).dag.edges == frozenset({(0, 1)})


def test_brute_force_rejects_oversize():
    table = ParentSetScoreTable(n=6, scores={i: {frozenset(): 0.0} for i in range(6)})
    with pytest.raises(ValueError):
        brute_force(table)


def test_greedy_empty_start_stays_at_optimum():
    rng = np.random.default_rng(3)
    table = random_table(4, 2, rng)
    for i in range(4):
        for pa in list(table.scores[i]):
            if pa:
                table.scores[i][pa] = -abs(table.scores[i][pa]) - 1.0
            else:
                table.scores[i][pa] = 0.0
    res = greedy_hill_climb(table, restarts=1, seed=0)
    assert res.dag.edges == frozenset()


def test_greedy_never_beats_dp():
    rng = np.random.default_rng(2024)
    for trial in range(10):
        table = random_table(6, 2, rng)
        opt = exact_dp(table).score
        got = greedy_hill_climb(table, restarts=20, seed=trial).score
        assert got <= opt + 1e-9


def test_greedy_matches_dp_on_data_tables():
    # score tables built from sampled data (the consuming use case); pure
    # iid-noise tables have far more local maxima and are checked above
    # only for the upper bound
    hits = 0
    for trial in range(10):
        net = random_network(6, 2, seed=1000 + trial)
        data = sample(net, 300, seed=2000 + trial)
        table = build_parent_set_scores(data, None, ScoreConfig(psi2=0.0))
        opt = exact_dp(table).score
        got = greedy_hill_climb(table, restarts=20, seed=trial).score
        assert got <= opt + 1e-9
        hits += abs(got - opt) <= 1e-9
    assert hits >= 8


def test_greedy_monotone_in_restarts():
    rng = np.random.default_rng(15)
    table = random_table(6, 2, rng)
    prev = -math.inf
    for restarts in (1, 2, 5, 10, 20):
        score = greedy_hill_climb(table, restarts=restarts, seed=9).score
        assert score >= prev - 1e-12
        prev = score


def test_greedy_deterministic():
    rng = np.random.default_rng(77)
    table = random_table(5, 2, rng)
    a = greedy_hill_climb(table, restarts=5, seed=42)
    b = greedy_hill_climb(table, restarts=5, seed=42)
    assert a.dag.edges == b.dag.edges and a.score == b.score


def test_greedy_validates_restarts():
    table = ParentSetScoreTable(n=1, scores={0: {frozenset(): 0.0}})
    with pytest.raises(ValueError):
        greedy_hill_climb(table, restarts=0, seed=0)


def test_greedy_refuses_a_table_without_a_valid_start():
    # node 1 lacks the empty family: the empty start fails, and so does a
    # random start while node 0 has no family at all
    message = "^no valid start: the table lacks the empty families$"
    table = ParentSetScoreTable(n=2, scores={0: {frozenset(): 0.0},
                                             1: {frozenset({0}): -1.0}})
    with pytest.raises(ValueError, match=message):
        greedy_hill_climb(table, restarts=1, seed=0)
    table = ParentSetScoreTable(n=3, scores={0: {}, 1: {frozenset(): 0.0},
                                             2: {frozenset({1}): -1.0}})
    with pytest.raises(ValueError, match=message):
        greedy_hill_climb(table, restarts=10, seed=0)


def test_search_results_reconstruct():
    rng = np.random.default_rng(31)
    table = random_table(5, 2, rng, constant=2.5)
    for res in (
        exact_dp(table),
        greedy_hill_climb(table, restarts=5, seed=1),
        brute_force(table),
    ):
        assert table.dag_score(res.dag) == pytest.approx(res.score, abs=1e-9)
        Dag(res.dag.n, res.dag.edges)  # acyclicity re-validated


def _has_path(children: list[set], src: int, dst: int) -> bool:
    """True if dst is reachable from src along child edges."""
    if src == dst:
        return True
    seen = {src}
    stack = [src]
    while stack:
        for w in children[stack.pop()]:
            if w == dst:
                return True
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def climb_reference(table: ParentSetScoreTable, parents: list[set]) -> tuple[list[set], float]:
    """Oracle: the climb that kept child sets and walked them for every
    candidate addition and reversal."""
    n = table.n
    tables = [table.scores.get(i, {}) for i in range(n)]

    def fam(i, pa):
        return tables[i].get(frozenset(pa), None)

    cur = [fam(i, parents[i]) for i in range(n)]
    if any(c is None for c in cur):
        raise ValueError("start graph contains a family missing from the table")
    total = sum(cur)
    children: list[set] = [set() for _ in range(n)]
    for v in range(n):
        for u in parents[v]:
            children[u].add(v)

    improved = True
    while improved:
        improved = False
        best_delta = 1e-12
        best_move = None
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                if u in parents[v]:
                    # deletion
                    s_v = fam(v, parents[v] - {u})
                    if s_v is not None:
                        delta = s_v - cur[v]
                        if delta > best_delta:
                            best_delta, best_move = delta, ("del", u, v)
                    # reversal: the new edge v -> u closes a cycle iff some
                    # other path u ~> v survives the deletion of u -> v
                    if v not in parents[u] and s_v is not None:
                        s_u = fam(u, parents[u] | {v})
                        if s_u is not None:
                            children[u].discard(v)
                            cyclic = _has_path(children, u, v)
                            children[u].add(v)
                            if not cyclic:
                                delta = (s_v - cur[v]) + (s_u - cur[u])
                                if delta > best_delta:
                                    best_delta, best_move = delta, ("rev", u, v)
                elif v not in parents[u]:
                    # addition u -> v
                    s = fam(v, parents[v] | {u})
                    if s is not None and not _has_path(children, v, u):
                        delta = s - cur[v]
                        if delta > best_delta:
                            best_delta, best_move = delta, ("add", u, v)
        if best_move is not None:
            kind, u, v = best_move
            if kind == "add":
                parents[v].add(u)
                children[u].add(v)
            else:
                parents[v].discard(u)
                children[u].discard(v)
                if kind == "rev":
                    parents[u].add(v)
                    children[v].add(u)
                    cur[u] = fam(u, parents[u])
            cur[v] = fam(v, parents[v])
            total = sum(cur)
            improved = True
    return parents, total + table.constant


def climb_reference_on_masks(fams, parents):
    """climb_reference behind _climb's interface: parent masks in and out,
    and the sum of the family scores without a table constant."""
    n = len(fams)

    def parent_set(mask):
        return {p for p in range(n) if mask >> p & 1}

    table = ParentSetScoreTable(n=n, scores={
        i: {frozenset(parent_set(m)): s for m, s in f.items()} for i, f in enumerate(fams)
    })
    out, score = climb_reference(table, [parent_set(m) for m in parents])
    return [sum(1 << p for p in pa) for pa in out], score


def test_greedy_matches_the_path_walking_climb(monkeypatch):
    rng = np.random.default_rng(1600)
    tables = []
    for trial in range(150):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 4))
        table = random_table(n, d, rng, constant=float(rng.normal()) or 1.0,
                             per_parent=float(rng.uniform(0.0, 3.0)))
        tables.append(drop_families(table, 0.3, rng) if trial % 2 else table)
    for trial in range(150):  # integer scores, so that moves tie
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 4))
        table = random_table(n, d, rng)
        table.scores = {i: {pa: float(rng.integers(-2, 3)) for pa in fams}
                        for i, fams in table.scores.items()}
        tables.append(drop_families(table, 0.3, rng) if trial % 2 else table)
    for trial in range(12):
        net = random_network(7, 2, seed=3000 + trial)
        data = sample(net, 400, seed=4000 + trial)
        tables.append(build_parent_set_scores(data, None, ScoreConfig(psi2=0.0)))
    new = [greedy_hill_climb(t, restarts=10, seed=k) for k, t in enumerate(tables)]
    monkeypatch.setattr(search, "_climb", climb_reference_on_masks)
    for k, (table, res) in enumerate(zip(tables, new)):
        ref = greedy_hill_climb(table, restarts=10, seed=k)
        assert res.dag.edges == ref.dag.edges
        assert res.score == ref.score


def test_greedy_skips_an_addition_that_closes_a_cycle():
    # the empty start adds 0 -> 1, then 1 -> 2; the one improving move left,
    # 2 -> 0 (+5), would close the cycle 0 -> 1 -> 2 -> 0
    scores = {
        0: {frozenset(): 0.0, frozenset({2}): 5.0},
        1: {frozenset(): 0.0, frozenset({0}): 10.0},
        2: {frozenset(): 0.0, frozenset({1}): 9.0},
    }
    res = greedy_hill_climb(ParentSetScoreTable(n=3, scores=scores), restarts=1)
    assert res.dag.edges == frozenset({(0, 1), (1, 2)})
    assert res.score == 19.0


def test_greedy_skips_a_reversal_that_closes_a_cycle():
    # the empty start adds 0 -> 2 (+40), 0 -> 1 (+10), then 1 -> 2 (+5).
    # Reversing 0 -> 2 then gains 30 - 25 = +5 but closes 0 -> 1 -> 2 -> 0
    scores = {
        0: {frozenset(): 0.0, frozenset({2}): 30.0},
        1: {frozenset(): 0.0, frozenset({0}): 10.0},
        2: {frozenset(): 0.0, frozenset({0}): 40.0, frozenset({1}): 20.0,
            frozenset({0, 1}): 45.0},
    }
    res = greedy_hill_climb(ParentSetScoreTable(n=3, scores=scores), restarts=1)
    assert res.dag.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    assert res.score == 55.0
