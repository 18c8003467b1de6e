import copy
import csv
import json
import math
import re

import numpy as np
import pytest

import bnboost.data
from bnboost.beta import beta_bruteforce, beta_exact, beta_mc, beta_product_mass
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
    read_variable_names,
    sample,
    save_dataset,
    save_network,
    save_structure,
)
from bnboost.dist2x2 import reference_dist
from bnboost.evaluate import ExperimentConfig, Pdag, run_experiment
from bnboost.scoring import (
    ParentSetScoreTable, ScoreConfig, build_parent_set_scores, edge_strengths,
)
from bnboost.search import exact_dp, greedy_hill_climb


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


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


def canonical(rows: int, bad_line: int, bad_row: str, eol: str = "\n") -> str:
    """A save_dataset-style body of `rows` rows whose file line `bad_line`
    (the header is line 1) reads bad_row instead."""
    lines = ["A,B"] + [f"{k % 2},{k // 2 % 2}" for k in range(rows)]
    lines[bad_line - 1] = bad_row
    return eol.join(lines) + eol


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
    ("A,B\n0,1\n0_1,0\n", 3),
    ("A,B\n0,1\n+1,0\n", 3),
    (canonical(150, 77, "0,2"), 77),
    (canonical(150, 120, "x,0", eol="\r\n"), 120),
    (canonical(150, 33, "0 1"), 33),
    (canonical(150, 151, "0,1,1", eol="\r\n"), 151),
    (canonical(150, 60, "0,1x1,0"), 60),
    (canonical(150, 90, "0,1x\n1,0", eol="\r\n"), 90),
], ids=["empty", "header-only", "short-row", "long-row", "non-integer", "float",
        "negative", "two", "huge", "duplicate-name", "underscore", "plus",
        "canonical-two", "canonical-x", "canonical-missing-comma",
        "canonical-extra-column", "canonical-lf-replaced", "canonical-cr-replaced"])
def test_load_dataset_names_the_bad_line(tmp_path, body, line):
    path = tmp_path / "d.csv"
    path.write_bytes(body.encode())
    with pytest.raises(ValueError, match=rf"d\.csv line {line}:"):
        load_dataset(path)


def test_load_dataset_tolerates_spaces(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("A,B\n0, 1\n 1 ,0\n")
    assert load_dataset(path).rows.tolist() == [[0, 1], [1, 0]]


def write_reference(data: BinaryDataset, path) -> None:
    """save_dataset's format as csv.writer writes it, one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.variable_names)
        for row in data.rows:
            writer.writerow(int(x) for x in row)


@pytest.mark.parametrize("n", [1, 2, 12, 70])
@pytest.mark.parametrize("n_rows", [1, 3, 20_000])
def test_dataset_roundtrip_is_csv_writer_bytes(tmp_path, n, n_rows):
    rng = np.random.default_rng(n * 100_003 + n_rows)
    data = BinaryDataset(
        tuple(f"X{j}" for j in range(n)),
        rng.integers(0, 2, size=(n_rows, n), dtype=np.uint8),
    )
    path, reference = tmp_path / "d.csv", tmp_path / "ref.csv"
    save_dataset(data, path)
    write_reference(data, reference)
    assert path.read_bytes() == reference.read_bytes()
    back = load_dataset(path)
    assert back.variable_names == data.variable_names
    assert np.array_equal(back.rows, data.rows)


def test_save_dataset_quotes_names_like_csv_writer(tmp_path):
    data = BinaryDataset(("a,b", 'say "hi"', "é", " x"), np.array([[0, 1, 1, 0]]))
    path, reference = tmp_path / "d.csv", tmp_path / "ref.csv"
    save_dataset(data, path)
    write_reference(data, reference)
    assert path.read_bytes() == reference.read_bytes()
    assert load_dataset(path).variable_names == data.variable_names


@pytest.mark.parametrize("text, fast", [
    ("A,B\n0,1\n1,0\n1,1\n", True),
    ("A,B\r\n0,1\r\n1,0\r\n", True),
    ("\ufeffA,B\r\n0,1\r\n", True),
    ('"A,x",B\n0,1\n1,0\n', False),
    ("A,B\n0,1 \n1,0\n", False),
    ("A,B\n0,1\n\n1,0\n", False),
    ('A,B\n"0",1\n1,"1"\n', False),
    ("A,B\n0,1\n1,0", False),
    ("A,B\r\n0,1\n1,0\r\n", False),
    ("A,B\n0,1\r\n", False),
    ("A\rB\n0\n", False),
    ("A,B\n0,1\n0;1\n", False),
], ids=["lf", "crlf", "bom", "quoted-name", "trailing-space", "blank-line",
        "quoted-cells", "no-final-line-end", "mixed-line-ends", "crlf-body-lf-header",
        "cr-in-header", "semicolon"])
def test_load_dataset_fast_path_equals_csv_loop(tmp_path, monkeypatch, text, fast):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())

    def load():
        try:
            data = load_dataset(path)
        except ValueError as exc:
            return str(exc)
        return data.variable_names, data.rows.tolist()

    canonical_rows, took = bnboost.data._canonical_rows, []

    def spy(*args):
        cells = canonical_rows(*args)
        took.append(cells is not None)
        return cells

    monkeypatch.setattr(bnboost.data, "_canonical_rows", spy)
    result = load()
    assert any(took) == fast
    monkeypatch.setattr(bnboost.data, "_canonical_rows", lambda *args: None)
    assert result == load()


def test_load_dataset_drops_a_bom(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes("\ufeffA,B\n0,1\n 1,0\n".encode())
    back = load_dataset(path)
    assert back.variable_names == ("A", "B")
    assert back.rows.tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize("raw, names", [
    (b"A,B\n0,1\n", ("A", "B")),
    (b"A,B\r\n", ("A", "B")),
    (b"\xef\xbb\xbfA,B\r\n0,1\r\n", ("A", "B")),
    (b'"a,\nb",c\n0,1\n', ("a,\nb", "c")),
    (b"A,B\n0,x\n0,1,1\n\"", ("A", "B")),
    (b"A,B\n" + b"0,1\n" * 20_000 + b"\xff\xfe,\x80\n", ("A", "B")),
    (b"", ()),
], ids=["lf", "header-only", "bom", "quoted-newline", "bad-body", "bad-bytes-far-below",
        "empty"])
def test_read_variable_names_reads_the_header_alone(tmp_path, raw, names):
    path = tmp_path / "d.csv"
    path.write_bytes(raw)
    assert read_variable_names(path) == names


def test_read_variable_names_refuses_a_repeated_name_as_load_dataset_does(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("A,B,A\n0,1,0\n")
    with pytest.raises(ValueError) as names:
        read_variable_names(path)
    with pytest.raises(ValueError) as data:
        load_dataset(path)
    assert str(names.value) == str(data.value) == f"{path} line 1: duplicate variable name 'A'"


@pytest.mark.parametrize("raw, line", [
    (b"A,\xffB\n0,1\n", 1),
    (b"A,B\n0,1\n1,\xff\n", 3),
    (b"\xef\xbb\xbfA,B\r\n0,1\r\n\x80,0\r\n", 3),
    (b"A,B\n" + b"0,1\n" * 5000 + b"1,\xfe\n", 5002),
], ids=["header", "body", "bom-crlf", "far-below"])
def test_load_dataset_names_a_byte_that_is_not_utf8(tmp_path, raw, line):
    path = tmp_path / "d.csv"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=rf"d\.csv line {line}: byte 0x.. is not UTF-8"):
        load_dataset(path)


def test_read_variable_names_names_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b'"A\n\xff",B\n0,1\n')  # a quoted name over two lines
    with pytest.raises(ValueError) as info:
        read_variable_names(path)
    assert str(info.value) == f"{path} line 2: byte 0xff is not UTF-8 (invalid start byte)"


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


def test_load_network_drops_a_bom(tmp_path):
    net = random_network(4, 2, seed=5)
    path = tmp_path / "net.json"
    save_network(net, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back = load_network(path)
    assert (back.dag, back.theta, back.bias) == (net.dag, net.theta, net.bias)


def test_load_network_names_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "net.json"
    save_network(random_network(3, 1, seed=5), path)
    # the name "X1" opens line 4 of the variables list
    path.write_bytes(path.read_bytes().replace(b'"X1"', b'"X\xff"', 1))
    with pytest.raises(ValueError) as info:
        load_network(path)
    assert str(info.value) == f"{path} line 4: byte 0xff is not UTF-8 (invalid start byte)"


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


@pytest.mark.parametrize("change, match", [
    (lambda doc: 5, "document is not a JSON object"),
    (lambda doc: {}, "document has no 'variables' key"),
    (lambda doc: doc.__delitem__("cpds"), "document has no 'cpds' key"),
    (lambda doc: doc.update(variables="X0X1X2X3"), "'variables' is 'X0X1X2X3', not a list"),
    (lambda doc: doc["variables"].__setitem__(0, 7), "'variables' is 7, not a string"),
    (lambda doc: doc.update(edges={}), "'edges' is {}, not a list"),
    (lambda doc: doc["edges"].append(5), "'edges' is 5, not a list"),
    (lambda doc: doc["edges"].append(["X0"]), r"edge \['X0'\] is not a pair of names"),
    (lambda doc: doc["edges"].append(["X0", ["X3"]]), r"unknown variable \['X3'\]"),
    (lambda doc: doc.update(cpds=[]), r"'cpds' is \[\], not an object"),
    (lambda doc: doc["cpds"].update(X1=0.5), "cpd of 'X1' is not a JSON object"),
    (lambda doc: doc["cpds"]["X1"].__delitem__("u"), "cpd of 'X1' has no 'u' key"),
    (lambda doc: doc["cpds"]["X1"].update(u=None), "cpd of 'X1' key 'u' is None, not a number"),
    (lambda doc: doc["cpds"]["X1"].update(theta=[]), r"'theta' is \[\], not an object"),
    (lambda doc: doc["cpds"]["X3"]["theta"].update(X0=None),
     "cpd of 'X3' weight of 'X0' is None, not a number"),
    (lambda doc: doc["cpds"]["X1"].update(u="0.5"), "cpd of 'X1' key 'u' is '0.5', not a number"),
    (lambda doc: doc["cpds"]["X1"].update(u=False), "cpd of 'X1' key 'u' is False, not a number"),
    (lambda doc: doc["cpds"]["X3"]["theta"].update(X0=10 ** 400),
     "cpd of 'X3' weight of 'X0' is 1000.*, not a number"),
    (lambda doc: doc["cpds"]["X1"].update(u=math.nan),
     "cpd of 'X1' key 'u' is nan, not a finite number"),
    (lambda doc: doc["cpds"]["X3"]["theta"].update(X0=math.inf),
     "cpd of 'X3' weight of 'X0' is inf, not a finite number"),
], ids=[
    "number", "empty", "no-cpds", "string-variables", "number-name", "object-edges",
    "number-edge", "short-edge", "list-name", "list-cpds", "number-cpd", "no-bias",
    "null-bias", "list-theta", "null-weight", "string-bias", "bool-bias", "huge-weight",
    "nan-bias", "infinite-weight",
])
def test_network_from_dict_rejects_other_shapes(tmp_path, change, match):
    doc = network_to_dict(random_network(4, 2, seed=13))
    changed = change(doc)  # None where change edits doc in place
    doc = doc if changed is None else changed
    with pytest.raises(ValueError, match=match):
        network_from_dict(doc)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match) as info:
        load_network(path)
    assert str(path) in str(info.value)


def test_dataset_validation():
    with pytest.raises(ValueError):
        BinaryDataset(("A",), np.array([[2]]))
    # each would read 0 or 1 after a cast to uint8
    for cell in (256, 0.5, 1.9, -255):
        with pytest.raises(ValueError, match="0 or 1"):
            BinaryDataset(("A",), np.array([[cell]]))
    with pytest.raises(ValueError):
        BinaryDataset(("A", "A"), np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        BinaryDataset(("A", "B"), np.zeros((0, 2), dtype=np.uint8))


def test_network_validation():
    with pytest.raises(ValueError):
        Network(dag=Dag(2, frozenset({(0, 1)})), theta={0: {}, 1: {}}, bias={0: 0.0, 1: 0.0})
    with pytest.raises(ValueError):
        Network(dag=Dag(1, frozenset()), theta={0: {}}, bias={})


def test_dataset_refuses_a_column_count_other_than_the_names():
    with pytest.raises(ValueError) as info:
        BinaryDataset(("A", "B"), np.zeros((3, 3), dtype=np.uint8))
    assert str(info.value) == "column count does not match variable names"


def test_network_refuses_a_name_count_other_than_the_dag():
    with pytest.raises(ValueError) as info:
        Network(Dag(2, frozenset()), {}, {0: 0.0, 1: 0.0}, variable_names=("A",))
    assert str(info.value) == "variable name count does not match the DAG"


@pytest.fixture(scope="module")
def integer_sites():
    """site -> (low, good, call) for every integer argument the package
    checks: call(v) passes v as that argument, every other one valid."""
    ref = reference_dist(0.01)
    net = random_network(5, 2, 11)
    data = sample(net, 300, 12)
    scores = build_parent_set_scores(data, None, ScoreConfig(psi2=0.0, d=1))

    def climb(restarts=2, seed=1):
        result = greedy_hill_climb(scores, restarts, seed)
        return result.dag, result.score

    def experiment(N=40, n=3, d=1, restarts=2, seed=5):
        rows = run_experiment(ExperimentConfig(
            N_schedule=[N], methods=[("bic", "greedy")], seeds=[seed], n=n, d=d,
            restarts=restarts))
        return [(r["seed"], r["N"], r["shd"], r["total_score"], r.get("dag")) for r in rows]

    return {
        "beta_exact-n": (1, 30, lambda v: beta_exact(v, 0.002, ref)),
        "beta_bruteforce-n": (1, 4, lambda v: beta_bruteforce(v, 0.002, ref)),
        "beta_product_mass-n": (1, 30, lambda v: beta_product_mass(v, ref)),
        "beta_mc-n": (1, 300, lambda v: beta_mc(v, 0.005, 0.01, 20000, 0)),
        "beta_mc-samples": (1, 20000, lambda v: beta_mc(300, 0.005, 0.01, v, 0)),
        "beta_mc-seed": (0, 3, lambda v: beta_mc(300, 0.005, 0.01, 20000, v)),
        "Dag-n": (1, 3, lambda v: Dag(v, frozenset({(0, 2)}))),
        "Pdag-n": (1, 3, lambda v: Pdag(v, frozenset({(0, 2)}), frozenset())),
        "random_network-n": (1, 6, lambda v: random_network(v, 2, 7)),
        "random_network-d": (0, 2, lambda v: random_network(6, v, 7)),
        "random_network-seed": (0, 7, lambda v: random_network(6, 2, v)),
        "sample-n_rows": (1, 100, lambda v: sample(net, v, 3).rows.tobytes()),
        "sample-seed": (0, 3, lambda v: sample(net, 100, v).rows.tobytes()),
        "ScoreConfig-d": (0, 1, lambda v: build_parent_set_scores(
            data, None, ScoreConfig(psi2=0.0, d=v)).scores),
        "edge_strength-a": (0, 0, lambda v: edge_strengths(net, [(v, 4)], 1)),
        "edge_strength-b": (0, 1, lambda v: edge_strengths(net, [(4, v)], 1)),
        "edge_strength-d": (0, 2, lambda v: edge_strengths(net, [(0, 1)], v)),
        "greedy_hill_climb-restarts": (1, 3, lambda v: climb(restarts=v)),
        "greedy_hill_climb-seed": (0, 4, lambda v: climb(seed=v)),
        "ParentSetScoreTable-n": (1, 5, lambda v: exact_dp(
            ParentSetScoreTable(v, scores.scores)).dag),
        "ExperimentConfig-N": (1, 40, lambda v: experiment(N=v)),
        "ExperimentConfig-n": (1, 3, lambda v: experiment(n=v)),
        "ExperimentConfig-d": (0, 1, lambda v: experiment(d=v)),
        "ExperimentConfig-restarts": (1, 2, lambda v: experiment(restarts=v)),
        "ExperimentConfig-seed": (0, 5, lambda v: experiment(seed=v)),
    }


@pytest.mark.parametrize("site", [
    "beta_exact-n", "beta_bruteforce-n", "beta_product_mass-n", "beta_mc-n",
    "beta_mc-samples", "beta_mc-seed",
    "Dag-n", "Pdag-n",
    "random_network-n", "random_network-d", "random_network-seed", "sample-n_rows",
    "sample-seed", "ScoreConfig-d", "edge_strength-a", "edge_strength-b", "edge_strength-d",
    "greedy_hill_climb-restarts", "greedy_hill_climb-seed", "ParentSetScoreTable-n",
    "ExperimentConfig-N", "ExperimentConfig-n", "ExperimentConfig-d",
    "ExperimentConfig-restarts", "ExperimentConfig-seed",
])
def test_integer_arguments_follow_one_rule(integer_sites, site):
    # a bool, a non-integer and a value below the bound are refused with one
    # message; a numpy integer passes and gives the Python int's result
    low, good, call = integer_sites[site]
    name = site.split("-")[1]
    for bad in (True, 2.5, low - 1):
        with pytest.raises(ValueError, match=f"^{name}={bad!r} must be an integer >= {low}$"):
            call(bad)
    assert call(np.int64(good)) == call(good)


def test_node_indices_follow_the_integer_rule():
    # a node index is an int or a numpy integer, not a bool or a float
    one = np.int64(1)
    assert Dag(3, frozenset({(one, 2)})) == Dag(3, frozenset({(1, 2)}))
    assert Pdag(3, frozenset(), frozenset({(0, one)})).undirected == {(0, 1)}
    bias = dict.fromkeys(range(3), 0.0)
    assert Network(Dag(3, frozenset({(1, 2)})), {2: {one: 0.5}}, bias).theta[2] == {1: 0.5}
    for make, message in (
        (lambda: Dag(3, frozenset({(True, 2)})), "bad edge (True, 2) for n=3"),
        (lambda: Dag(3, frozenset({(0.0, 1)})), "bad edge (0.0, 1) for n=3"),
        (lambda: Dag(3, frozenset({(0, 2.0)})), "bad edge (0, 2.0) for n=3"),
        (lambda: Pdag(3, frozenset({(True, 2)}), frozenset()), "bad directed edge (True, 2)"),
        (lambda: Pdag(3, frozenset(), frozenset({(0.0, 1)})), "bad undirected edge (0.0, 1)"),
        (lambda: Network(Dag(3, frozenset({(1, 2)})), {2: {True: 0.5}}, bias),
         "node 2: theta keys [True] != parents [1]"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()
