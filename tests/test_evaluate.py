import math
from itertools import combinations

import numpy as np
import pytest

from bnboost.beta import build_table
from bnboost.data import Dag
from bnboost.evaluate import (
    ExperimentConfig,
    Pdag,
    dag_to_cpdag,
    experiment_config_from_dict,
    rows_to_csv,
    run_experiment,
    run_search,
    shd,
    CSV_COLUMNS,
    SEARCH_METHODS,
)
from bnboost.scoring import ParentSetScoreTable, ScoreConfig
from bnboost.search import all_dags
from oracles import skeleton, v_structures


# ------------------------------------------------------------------ dag_to_cpdag

def test_cpdag_single_edge_is_undirected():
    p = dag_to_cpdag(Dag(2, frozenset({(0, 1)})))
    assert p.directed == frozenset()
    assert p.undirected == frozenset({(0, 1)})


def test_cpdag_chain_is_undirected():
    p = dag_to_cpdag(Dag(3, frozenset({(0, 1), (1, 2)})))
    assert p.directed == frozenset()
    assert p.undirected == frozenset({(0, 1), (1, 2)})


def test_cpdag_v_structure_stays_directed():
    p = dag_to_cpdag(Dag(3, frozenset({(0, 2), (1, 2)})))
    assert p.directed == frozenset({(0, 2), (1, 2)})
    assert p.undirected == frozenset()


def test_cpdag_mixed_graph():
    # 0 -> 2 <- 1 plus 2 -> 3: the collider is compelled and forces 2 -> 3
    p = dag_to_cpdag(Dag(4, frozenset({(0, 2), (1, 2), (2, 3)})))
    assert p.directed == frozenset({(0, 2), (1, 2), (2, 3)})
    assert p.undirected == frozenset()


def test_cpdag_preserves_skeleton():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        dags = all_dags(n)
        dag = Dag(n, frozenset(dags[int(rng.integers(len(dags)))]))
        p = dag_to_cpdag(dag)
        assert p.skeleton() == skeleton(dag)
        assert len(p.directed) + len(p.undirected) == len(dag.edges)


def test_cpdag_constant_on_equivalence_classes_exhaustive():
    for n in (2, 3, 4):
        classes = {}
        for edges in all_dags(n):
            dag = Dag(n, frozenset(edges))
            key = (skeleton(dag), v_structures(dag))
            classes.setdefault(key, []).append(dag_to_cpdag(dag))
        for members in classes.values():
            first = members[0]
            for other in members[1:]:
                assert other == first
                assert shd(first, other) == 0


def test_cpdag_distinct_across_classes():
    for n in (2, 3):
        seen = {}
        for edges in all_dags(n):
            dag = Dag(n, frozenset(edges))
            key = (skeleton(dag), v_structures(dag))
            p = dag_to_cpdag(dag)
            if key in seen:
                assert seen[key] == p
            else:
                assert p not in seen.values()
                seen[key] = p


def meek_cpdag(dag):
    """Independent route to the completed PDAG: orient the unshielded
    colliders on the skeleton, then close under the three propagation rules
    (no background knowledge, so the fourth rule never fires)."""
    n = dag.n
    skel = skeleton(dag)
    directed = set()
    for a, y, b in v_structures(dag):
        directed.update({(a, y), (b, y)})

    def adjacent(u, v):
        return (min(u, v), max(u, v)) in skel

    changed = True
    while changed:
        changed = False
        for u, v in sorted(skel):
            if (u, v) in directed or (v, u) in directed:
                continue
            for x, y in ((u, v), (v, u)):
                # w -> x with w, y nonadjacent forces x -> y
                r1 = any(
                    (w, x) in directed and w != y and not adjacent(w, y)
                    for w in range(n)
                )
                # x -> w -> y with x - y present forces x -> y
                r2 = any((x, w) in directed and (w, y) in directed for w in range(n))
                # two nonadjacent w with x - w and w -> y force x -> y
                ws = [
                    w for w in range(n)
                    if adjacent(x, w)
                    and (w, x) not in directed and (x, w) not in directed
                    and (w, y) in directed
                ]
                r3 = any(
                    not adjacent(w1, w2) for w1, w2 in combinations(ws, 2)
                )
                if r1 or r2 or r3:
                    directed.add((x, y))
                    changed = True
                    break
            if changed:
                break
    undirected = frozenset(
        p for p in skel if p not in directed and (p[1], p[0]) not in directed
    )
    return Pdag(n, frozenset(directed), undirected)


def test_cpdag_matches_meek_closure_on_random_dags():
    from bnboost.data import random_network

    for n, d in ((5, 3), (6, 4), (7, 5)):
        for seed in range(100):
            dag = random_network(n, d, seed=seed).dag
            assert dag_to_cpdag(dag) == meek_cpdag(dag)


# -------------------------------------------------------------------------- shd

def test_shd_identity_and_symmetry():
    p1 = dag_to_cpdag(Dag(3, frozenset({(0, 1), (1, 2)})))
    p2 = dag_to_cpdag(Dag(3, frozenset({(0, 2), (1, 2)})))
    assert shd(p1, p1) == 0
    assert shd(p1, p2) == shd(p2, p1) > 0


def test_shd_missing_adjacency_costs_one():
    chain = dag_to_cpdag(Dag(3, frozenset({(0, 1), (1, 2)})))
    single = dag_to_cpdag(Dag(3, frozenset({(0, 1)})))
    assert shd(chain, single) == 1


def test_shd_orientation_mismatch_costs_one():
    a = Pdag(2, frozenset({(0, 1)}), frozenset())
    b = Pdag(2, frozenset({(1, 0)}), frozenset())
    c = Pdag(2, frozenset(), frozenset({(0, 1)}))
    assert shd(a, b) == 1  # reversal
    assert shd(a, c) == 1  # directed vs undirected
    assert shd(b, c) == 1


def test_shd_rejects_mismatched_nodes():
    with pytest.raises(ValueError):
        shd(Pdag(2, frozenset(), frozenset()), Pdag(3, frozenset(), frozenset()))


def test_pdag_validation():
    with pytest.raises(ValueError):
        Pdag(2, frozenset({(0, 1)}), frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        Pdag(2, frozenset({(0, 1), (1, 0)}), frozenset())
    with pytest.raises(ValueError):
        Pdag(2, frozenset({(0, 0)}), frozenset())


# -------------------------------------------------------------------- harness

@pytest.fixture(scope="module")
def tiny_table():
    return build_table(0.01, N_grid=[100, 200], gamma_grid=[0.0, 0.002, 0.005])


def test_run_experiment_recovers_strong_edge(tmp_path, tiny_table):
    from bnboost.data import Network, save_network

    net = Network(
        dag=Dag(2, frozenset({(0, 1)})),
        theta={0: {}, 1: {0: 6.0}},
        bias={0: 0.0, 1: -3.0},
    )
    path = tmp_path / "net.json"
    save_network(net, path)
    cfg = ExperimentConfig(
        N_schedule=[10_000],
        methods=[("bic", "brute")],
        seeds=[0],
        network_path=str(path),
        score=ScoreConfig(d=1),
        d=1,
    )
    rows = run_experiment(cfg)
    runs = [r for r in rows if r["seed"] != "mean"]
    assert len(runs) == 1
    assert runs[0]["shd"] == 0
    assert dag_to_cpdag(runs[0]["dag"]) == dag_to_cpdag(net.dag)


def test_recovery_with_detectable_edges(tiny_table):
    # when every edge carries real signal, the boosted score recovers the
    # equivalence class outright and never trails BIC
    from bnboost.data import Network, random_network, sample
    from bnboost.scoring import ScoreConfig, build_parent_set_scores
    from bnboost.search import exact_dp

    shd_bic, shd_boost = [], []
    for seed in range(4):
        base = random_network(6, 2, seed=seed)
        theta = {
            i: {p: 2.0 if w >= 0 else -2.0 for p, w in d.items()}
            for i, d in base.theta.items()
        }
        net = Network(dag=base.dag, theta=theta, bias=base.bias)
        data = sample(net, 2000, seed=100 + seed)
        truth = dag_to_cpdag(net.dag)
        for psi2, bucket in ((0.0, shd_bic), (1.0, shd_boost)):
            cfg = ScoreConfig(eta=0.01, kappa=0.5, psi2=psi2, d=2)
            pst = build_parent_set_scores(data, tiny_table if psi2 else None, cfg)
            bucket.append(shd(truth, dag_to_cpdag(exact_dp(pst).dag)))
    assert sum(shd_boost) <= sum(shd_bic)
    assert sum(shd_boost) / len(shd_boost) <= 1.0


def test_run_experiment_deterministic_modulo_timings(tiny_table):
    cfg = ExperimentConfig(
        N_schedule=[200, 500],
        methods=[("bic", "dp"), ("boost", "dp")],
        seeds=[1, 5],
        n=4, d=2,
        score=ScoreConfig(),
    )
    r1 = run_experiment(cfg, beta_table=tiny_table)
    r2 = run_experiment(cfg, beta_table=tiny_table)

    def strip(rows):
        return [
            {k: v for k, v in row.items() if not k.endswith("_ms")} for row in rows
        ]

    assert strip(r1) == strip(r2)
    # wall-clock columns are the one nondeterministic part of the CSV
    c1 = [ln.split(",")[:9] for ln in rows_to_csv(r1).splitlines()]
    c2 = [ln.split(",")[:9] for ln in rows_to_csv(r2).splitlines()]
    assert c1 == c2


def test_run_experiment_mean_rows(tiny_table):
    cfg = ExperimentConfig(
        N_schedule=[300],
        methods=[("boost", "dp")],
        seeds=[2, 3, 4],
        n=4, d=2,
        score=ScoreConfig(),
    )
    rows = run_experiment(cfg, beta_table=tiny_table)
    runs = [r for r in rows if r["seed"] != "mean"]
    means = [r for r in rows if r["seed"] == "mean"]
    assert len(runs) == 3 and len(means) == 1
    assert means[0]["shd"] == pytest.approx(sum(r["shd"] for r in runs) / 3)
    assert means[0]["total_score"] == pytest.approx(
        sum(r["total_score"] for r in runs) / 3
    )
    assert means[0]["score_build_ms"] == pytest.approx(
        sum(r["score_build_ms"] for r in runs) / 3
    )


def test_run_experiment_failure_leaves_empty_row(tiny_table):
    # brute force refuses n = 6, so every run fails but the harness survives
    cfg = ExperimentConfig(
        N_schedule=[100],
        methods=[("bic", "brute")],
        seeds=[0],
        n=6, d=2,
    )
    rows = run_experiment(cfg)
    runs = [r for r in rows if r["seed"] != "mean"]
    assert len(runs) == 1
    assert runs[0]["shd"] == "" and runs[0]["total_score"] == ""
    assert runs[0]["dag"] is None
    assert not [r for r in rows if r["seed"] == "mean"]


def test_run_experiment_requires_matching_eta(tiny_table):
    cfg = ExperimentConfig(
        N_schedule=[100], methods=[("boost", "dp")], seeds=[0],
        n=3, d=2, score=ScoreConfig(eta=0.02),
    )
    with pytest.raises(ValueError):
        run_experiment(cfg, beta_table=tiny_table)


def test_run_experiment_boost_needs_a_table():
    cfg = ExperimentConfig(
        N_schedule=[100], methods=[("bic", "dp"), ("boost", "dp")], seeds=[0], n=3, d=2,
    )
    with pytest.raises(ValueError, match="^boost methods need a beta table$"):
        run_experiment(cfg)


def test_rows_to_csv_shape(tiny_table):
    cfg = ExperimentConfig(
        N_schedule=[150], methods=[("bic", "dp")], seeds=[7],
        n=3, d=2,
    )
    text = rows_to_csv(run_experiment(cfg))
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3  # header + run + mean
    assert lines[1].split(",")[0] == "7"
    assert lines[2].split(",")[0] == "mean"


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(N_schedule=[], methods=[("bic", "dp")], seeds=[0])
    with pytest.raises(ValueError):
        ExperimentConfig(N_schedule=[100, 100], methods=[("bic", "dp")], seeds=[0])
    with pytest.raises(ValueError):
        ExperimentConfig(N_schedule=[100], methods=[("bic", "dp")], seeds=[0, 0])
    with pytest.raises(ValueError):
        ExperimentConfig(N_schedule=[100], methods=[("nope", "dp")], seeds=[0])
    with pytest.raises(ValueError):
        ExperimentConfig(N_schedule=[100], methods=[("bic", "nope")], seeds=[0])
    with pytest.raises(ValueError, match="^restarts=0 must be an integer >= 1$"):
        ExperimentConfig(N_schedule=[50], methods=[("bic", "greedy")], seeds=[0], n=3,
                         restarts=0)
    with pytest.raises(ValueError, match="^N=0 must be an integer >= 1$"):
        ExperimentConfig(N_schedule=[0, 50], methods=[("bic", "dp")], seeds=[0], n=3)
    with pytest.raises(ValueError, match="methods must be nonempty"):
        ExperimentConfig(N_schedule=[100], methods=[], seeds=[0], n=3)
    with pytest.raises(ValueError, match="^seed=-1 must be an integer >= 0$"):
        ExperimentConfig(N_schedule=[50], methods=[("bic", "dp")], seeds=[2, -1], n=3)
    with pytest.raises(ValueError, match="^n=0 must be an integer >= 1$"):
        ExperimentConfig(N_schedule=[50], methods=[("bic", "dp")], seeds=[0], n=0, d=-1)
    with pytest.raises(ValueError, match="^d=-1 must be an integer >= 0$"):
        ExperimentConfig(N_schedule=[50], methods=[("bic", "dp")], seeds=[0], n=3, d=-1)


def test_experiment_config_from_dict():
    doc = {
        "network": {"n": 5, "d": 2},
        "N_schedule": [100, 200],
        "methods": [["bic", "dp"], ["boost", "greedy"]],
        "seeds": [0, 1],
        "eta": 0.01,
        "kappa": 0.5,
        "psi2": 1.0,
        "d": 2,
        "beta_table": "beta.json",
        "restarts": 4,
    }
    cfg = experiment_config_from_dict(doc)
    assert cfg.n == 5 and cfg.d == 2
    assert cfg.methods == [("bic", "dp"), ("boost", "greedy")]
    assert cfg.beta_table_path == "beta.json"
    assert cfg.restarts == 4
    assert cfg.score.eta == 0.01
    # missing keys take the config classes' own defaults, and the network's
    # in-degree the score's d
    doc = {"N_schedule": [100], "methods": [["bic", "dp"]], "seeds": [0]}
    cfg = experiment_config_from_dict(doc)
    assert cfg.score == ScoreConfig()
    assert cfg.d == ScoreConfig().d
    assert (cfg.n, cfg.restarts) == (ExperimentConfig.n, ExperimentConfig.restarts)
    cfg = experiment_config_from_dict({**doc, "kappa": 1, "d": 3})
    assert cfg.score == ScoreConfig(kappa=1.0, d=3)


def test_network_in_degree_follows_one_rule_from_both_entry_points():
    # the generating networks' in-degree defaults to the score's d
    doc = {"N_schedule": [100], "methods": [["bic", "dp"]], "seeds": [0], "d": 3}
    direct = ExperimentConfig(N_schedule=[100], methods=[("bic", "dp")], seeds=[0],
                              score=ScoreConfig(d=3))
    assert direct.d == 3
    assert experiment_config_from_dict(doc) == direct
    given = ExperimentConfig(N_schedule=[100], methods=[("bic", "dp")], seeds=[0], d=1,
                             score=ScoreConfig(d=3))
    assert experiment_config_from_dict({**doc, "network": {"d": 1}}) == given


@pytest.mark.parametrize("change, match", [
    (lambda doc: [doc], "experiment config is not a JSON object"),
    (lambda doc: doc.__delitem__("methods"), "experiment config has no 'methods' key"),
    (lambda doc: doc.update(N_schedule=100), "'N_schedule' is 100, not a list"),
    (lambda doc: doc.update(seeds={"a": 0}), "'seeds' is {'a': 0}, not a list"),
    (lambda doc: doc.update(seeds=[None]), "entry of experiment config key 'seeds' is None"),
    (lambda doc: doc.update(methods=["bic"]), "'methods' is 'bic', not a list"),
    (lambda doc: doc.update(methods=[["bic"]]), r"'methods' is \[\['bic'\]\], not a list of pairs"),
    (lambda doc: doc.update(network=[]), r"'network' is \[\], not an object"),
    (lambda doc: doc.update(network={"n": None}), "config network key 'n' is None"),
    (lambda doc: doc.update(network={"path": 5}), "config network key 'path' is 5"),
    (lambda doc: doc.update(beta_table=[]), r"'beta_table' is \[\], not a string"),
    (lambda doc: doc.update(eta=None), "'eta' is None, not a number"),
    (lambda doc: doc.update(restarts="ten"), "'restarts' is 'ten', not an integer"),
    # an integer field takes a JSON integer, and a number field no string or boolean
    (lambda doc: doc.update(d="3"), "'d' is '3', not an integer"),
    (lambda doc: doc.update(d=2.0), "'d' is 2.0, not an integer"),
    (lambda doc: doc.update(N_schedule=[100.7], seeds=[0.9, True], network={"n": 3.5, "d": 2.5},
                            restarts=2.2),
     "entry of experiment config key 'N_schedule' is 100.7, not an integer"),
    (lambda doc: doc.update(seeds=[0, True]), "entry of experiment config key 'seeds' is True"),
    (lambda doc: doc.update(network={"n": 3.5}), "config network key 'n' is 3.5, not an integer"),
    (lambda doc: doc.update(network={"d": 2.5}), "config network key 'd' is 2.5, not an integer"),
    (lambda doc: doc.update(restarts=2.2), "'restarts' is 2.2, not an integer"),
    (lambda doc: doc.update(eta="0.01"), "'eta' is '0.01', not a number"),
    (lambda doc: doc.update(kappa=True), "'kappa' is True, not a number"),
    (lambda doc: doc.update(kappa=math.nan), "'kappa' is nan, not a finite number"),
], ids=[
    "list", "no-methods", "number-schedule", "object-seeds", "null-seed", "string-method",
    "short-method", "list-network", "null-n", "number-path", "list-table", "null-eta",
    "word-restarts", "string-d", "float-d", "fractional-integers", "bool-seed",
    "fractional-n", "fractional-network-d", "fractional-restarts", "string-eta", "bool-kappa",
    "nan-kappa",
])
def test_experiment_config_from_dict_rejects_other_shapes(change, match):
    doc = {"N_schedule": [100], "methods": [["bic", "dp"]], "seeds": [0]}
    changed = change(doc)  # None where change edits doc in place
    doc = doc if changed is None else changed
    with pytest.raises(ValueError, match=match):
        experiment_config_from_dict(doc)


def test_a_method_outside_search_methods_is_refused():
    """SEARCH_METHODS is the one list of search names: learn's --method
    choices, ExperimentConfig and run_search all read it."""
    assert SEARCH_METHODS == ("dp", "greedy", "brute")
    with pytest.raises(ValueError, match="^unknown search method 'astar'$"):
        ExperimentConfig(N_schedule=[100], methods=[("bic", "astar")], seeds=[0])
    table = ParentSetScoreTable(n=1, scores={0: {frozenset(): -1.0}})
    with pytest.raises(ValueError, match="^unknown search method 'astar'$"):
        run_search(table, "astar")
