import copy
import json
import math

import numpy as np
import pytest

from bnboost.data import (
    BinaryDataset,
    CycleError,
    Dag,
    Network,
    load_dataset,
    load_network,
    load_structure,
    network_from_dict,
    network_to_dict,
    random_network,
    sample,
    save_dataset,
    save_network,
    save_structure,
)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


@pytest.fixture
def four_rows():
    # perfectly correlated pair: rows (A,B) = (0,0),(0,0),(1,1),(1,1)
    return BinaryDataset(("A", "B"), np.array([[0, 0], [0, 0], [1, 1], [1, 1]]))


# ----------------------------------------------------------------------- Dag

def test_dag_basics():
    g = Dag(3, frozenset({(0, 2), (1, 2)}))
    assert g.parents(2) == (0, 1)
    assert g.in_degree(2) == 2
    assert g.topological_order().index(0) < g.topological_order().index(2)
    g.check_in_degree(2)
    with pytest.raises(ValueError):
        g.check_in_degree(1)


def test_dag_rejects_cycles_and_bad_edges():
    with pytest.raises(CycleError):
        Dag(2, frozenset({(0, 1), (1, 0)}))
    with pytest.raises(CycleError):
        Dag(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    with pytest.raises(ValueError):
        Dag(2, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Dag(2, frozenset({(0, 5)}))


# ----------------------------------------------------------------- generation

def test_random_network_d0_is_empty():
    net = random_network(6, 0, seed=1)
    assert not net.dag.edges
    # marginal of each node is sigmoid(bias)
    data = sample(net, 20_000, seed=2)
    for i in range(6):
        freq = data.rows[:, i].mean()
        p = sigmoid(net.bias[i])
        se = math.sqrt(p * (1 - p) / 20_000)
        assert abs(freq - p) <= 4 * se


def test_random_network_deterministic():
    a = random_network(10, 3, seed=77)
    b = random_network(10, 3, seed=77)
    assert a.dag.edges == b.dag.edges
    assert a.theta == b.theta
    assert a.bias == b.bias
    c = random_network(10, 3, seed=78)
    assert (a.dag.edges, a.bias) != (c.dag.edges, c.bias)


def test_random_network_respects_in_degree():
    for seed in range(20):
        net = random_network(12, 2, seed=seed)
        net.dag.check_in_degree(2)


def test_theta_moments():
    # weights are U[-1/2,1/2] + N(0,1)/4: mean 0, variance 1/12 + 1/16
    thetas = []
    seed = 0
    while len(thetas) < 10_000:
        net = random_network(8, 3, seed=seed)
        thetas.extend(w for d in net.theta.values() for w in d.values())
        seed += 1
    arr = np.array(thetas[:10_000])
    assert abs(arr.mean()) < 0.02
    assert abs(arr.var() - (1 / 12 + 1 / 16)) < 0.02


def test_sample_deterministic_and_binary():
    net = random_network(5, 2, seed=3)
    d1 = sample(net, 500, seed=4)
    d2 = sample(net, 500, seed=4)
    assert (d1.rows == d2.rows).all()
    assert set(np.unique(d1.rows)) <= {0, 1}
    with pytest.raises(ValueError):
        sample(net, 0, seed=1)


def test_sample_single_node_balance():
    net = Network(dag=Dag(1, frozenset()), theta={0: {}}, bias={0: 0.0})
    data = sample(net, 10_000, seed=9)
    se = math.sqrt(0.25 / 10_000)
    assert abs(data.rows[:, 0].mean() - 0.5) <= 3 * se


def test_sample_relabeling_matches_in_distribution():
    # pushing a node permutation through the network must leave each
    # variable's law unchanged; checked on marginal frequencies, not bitwise
    net = random_network(6, 2, seed=55)
    perm = [2, 5, 0, 1, 4, 3]
    edges = frozenset((perm[u], perm[v]) for u, v in net.dag.edges)
    theta = {perm[i]: {perm[p]: w for p, w in d.items()} for i, d in net.theta.items()}
    bias = {perm[i]: u for i, u in net.bias.items()}
    relabeled = Network(dag=Dag(6, edges), theta=theta, bias=bias)

    a = sample(net, 40_000, seed=7)
    b = sample(relabeled, 40_000, seed=8)
    for i in range(6):
        p = a.rows[:, i].mean()
        q = b.rows[:, perm[i]].mean()
        se = math.sqrt(2 * 0.25 / 40_000)
        assert abs(p - q) <= 4 * se


def test_sample_strong_edge_conditional():
    net = Network(
        dag=Dag(2, frozenset({(0, 1)})),
        theta={0: {}, 1: {0: 10.0}},
        bias={0: 0.0, 1: 0.0},
    )
    data = sample(net, 20_000, seed=11)
    a1 = data.rows[:, 0] == 1
    p_hat = data.rows[a1, 1].mean()
    p = sigmoid(10.0)
    se = math.sqrt(p * (1 - p) / a1.sum() + 1e-12)
    assert abs(p_hat - p) <= 3 * se + 1e-3


# ----------------------------------------------------------------------- files

def test_dataset_roundtrip(tmp_path, four_rows):
    path = tmp_path / "d.csv"
    save_dataset(four_rows, path)
    back = load_dataset(path)
    assert back.variable_names == four_rows.variable_names
    assert (back.rows == four_rows.rows).all()


@pytest.mark.parametrize("body, line", [
    ("", 1),
    ("A,B\n", 2),
    ("A,B\n0,1\n1\n", 3),
    ("A,B\n0,1\n0,1,1\n", 3),
    ("A,B\n0,1\n0,x\n", 3),
    ("A,B\n0,1\n0,1.0\n", 3),
    ("A,B\n0,1\n\n-1,0\n", 4),
    ("A,B\n0,2\n", 2),
    ("A,B\n0,1\n1,99999999999999999999999\n", 3),
    ("A,A\n0,1\n", 1),
], ids=["empty", "header-only", "short-row", "long-row", "non-integer", "float",
        "negative", "two", "huge", "duplicate-name"])
def test_load_dataset_names_the_bad_line(tmp_path, body, line):
    path = tmp_path / "d.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=rf"d\.csv line {line}:"):
        load_dataset(path)


def test_load_dataset_tolerates_spaces(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("A,B\n0, 1\n 1 ,0\n")
    assert load_dataset(path).rows.tolist() == [[0, 1], [1, 0]]


def test_network_roundtrip(tmp_path):
    net = random_network(7, 2, seed=13)
    doc = network_to_dict(net)
    back = network_from_dict(doc)
    assert back.dag.edges == net.dag.edges
    assert back.bias == net.bias
    assert back.theta == net.theta

    path = tmp_path / "net.json"
    save_network(net, path)
    again = load_network(path)
    assert again.dag.edges == net.dag.edges
    d1 = sample(net, 50, seed=1)
    d2 = sample(again, 50, seed=1)
    assert (d1.rows == d2.rows).all()


def test_structure_roundtrip(tmp_path):
    net = random_network(6, 2, seed=21)
    path = tmp_path / "s.json"
    save_structure(net.variable_names, net.dag, path)
    assert load_structure(path) == (net.variable_names, net.dag)
    assert json.loads(path.read_text()) == {
        k: v for k, v in network_to_dict(net).items() if k != "cpds"
    }


def test_network_from_dict_names_the_bad_variable():
    doc = network_to_dict(random_network(4, 2, seed=13))
    edge, cpd, parent, twice = (copy.deepcopy(doc) for _ in range(4))
    edge["edges"].append(["X0", "Q"])
    cpd["cpds"]["Q"] = {"theta": {}, "u": 0.0}
    parent["cpds"]["X1"]["theta"]["Q"] = 1.0
    twice["variables"][2] = "X1"
    for bad, name in ((edge, "'Q'"), (cpd, "'Q'"), (parent, "'Q'"), (twice, "'X1'")):
        with pytest.raises(ValueError, match=name):
            network_from_dict(bad)


def test_dataset_validation():
    with pytest.raises(ValueError):
        BinaryDataset(("A",), np.array([[2]]))
    with pytest.raises(ValueError):
        BinaryDataset(("A", "A"), np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        BinaryDataset(("A", "B"), np.zeros((0, 2), dtype=np.uint8))


def test_network_validation():
    with pytest.raises(ValueError):
        Network(dag=Dag(2, frozenset({(0, 1)})), theta={0: {}, 1: {}}, bias={0: 0.0, 1: 0.0})
    with pytest.raises(ValueError):
        Network(dag=Dag(1, frozenset()), theta={0: {}}, bias={})
