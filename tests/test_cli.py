import json

import pytest

from bnboost.beta import load_table
from bnboost.cli import main
from bnboost.data import load_dataset, load_network
from bnboost.scoring import load_scores


def run(*argv):
    return main([str(a) for a in argv])


def test_full_pipeline(tmp_path, capsys):
    net = tmp_path / "net.json"
    data = tmp_path / "data.csv"
    table = tmp_path / "beta.json"
    scores = tmp_path / "scores.txt"
    learned = tmp_path / "learned.json"

    assert run("--quiet", "gen-net", "--n", 5, "--d", 2, "--seed", 3, "--out", net) == 0
    loaded = load_network(net)
    assert loaded.n == 5
    loaded.dag.check_in_degree(2)

    assert run("--quiet", "gen-data", "--net", net, "--rows", 800, "--seed", 4,
               "--out", data) == 0
    ds = load_dataset(data)
    assert ds.n_rows == 800 and ds.n_vars == 5

    assert run("--quiet", "beta-table", "--eta", 0.01,
               "--n-grid", "50,200,1000,5000",
               "--gamma-grid", "0,0.001,0.005",
               "--samples", 20000, "--seed", 5, "--out", table) == 0
    tab = load_table(table)
    assert tab.eta == 0.01 and tab.neg_ln_beta.shape == (4, 3)

    assert run("--quiet", "score", "--data", data, "--beta-table", table,
               "--kappa", 0.5, "--psi2", 1.0, "--d", 2, "--out", scores) == 0
    pst = load_scores(scores)
    assert pst.n == 5

    assert run("--quiet", "learn", "--scores", scores, "--method", "dp",
               "--names", data, "--out", learned) == 0
    doc = json.loads(learned.read_text())
    assert set(doc) == {"variables", "edges"}
    assert doc["variables"] == list(ds.variable_names)

    assert run("--quiet", "eval", "--true", net, "--learned", learned) == 0
    out = capsys.readouterr().out.strip()
    assert out.isdigit()


def test_learn_greedy_and_brute(tmp_path):
    net = tmp_path / "net.json"
    data = tmp_path / "data.csv"
    scores = tmp_path / "scores.txt"
    run("--quiet", "gen-net", "--n", 4, "--d", 2, "--seed", 11, "--out", net)
    run("--quiet", "gen-data", "--net", net, "--rows", 400, "--seed", 12, "--out", data)
    run("--quiet", "score", "--data", data, "--psi2", 0, "--eta", 0.01,
        "--d", 2, "--out", scores)

    outs = {}
    for method in ("dp", "greedy", "brute"):
        out = tmp_path / f"{method}.json"
        assert run("--quiet", "learn", "--scores", scores, "--method", method,
                   "--restarts", 10, "--seed", 0, "--out", out) == 0
        outs[method] = json.loads(out.read_text())

    def structure_score(doc):
        table = load_scores(scores)
        pos = {name: k for k, name in enumerate(doc["variables"])}
        from bnboost.data import Dag
        dag = Dag(table.n, frozenset((pos[u], pos[v]) for u, v in doc["edges"]))
        return table.dag_score(dag)

    assert structure_score(outs["dp"]) == pytest.approx(
        structure_score(outs["brute"]), abs=1e-9
    )
    assert structure_score(outs["greedy"]) <= structure_score(outs["dp"]) + 1e-9


def test_eval_names_the_bad_variable(tmp_path):
    net = tmp_path / "net.json"
    run("--quiet", "gen-net", "--n", 3, "--d", 1, "--seed", 1, "--out", net)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"variables": ["X0", "X1", "X2"],
                                   "edges": [["X0", "Q"]]}))
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps({"variables": ["X0", "X1", "X1"], "edges": []}))
    with pytest.raises(ValueError, match="'Q'"):
        run("--quiet", "eval", "--true", net, "--learned", unknown)
    with pytest.raises(ValueError, match="'X1'"):
        run("--quiet", "eval", "--true", twice, "--learned", net)


def test_score_requires_table_for_boost(tmp_path):
    net = tmp_path / "net.json"
    data = tmp_path / "data.csv"
    run("--quiet", "gen-net", "--n", 3, "--d", 1, "--seed", 1, "--out", net)
    run("--quiet", "gen-data", "--net", net, "--rows", 50, "--seed", 2, "--out", data)
    with pytest.raises(SystemExit):
        run("--quiet", "score", "--data", data, "--eta", 0.01,
            "--out", tmp_path / "s.txt")


def test_bic_score_needs_no_eta(tmp_path):
    net = tmp_path / "net.json"
    data = tmp_path / "data.csv"
    run("--quiet", "gen-net", "--n", 4, "--d", 2, "--seed", 1, "--out", net)
    run("--quiet", "gen-data", "--net", net, "--rows", 300, "--seed", 2, "--out", data)
    with_eta, without = tmp_path / "with.txt", tmp_path / "without.txt"
    assert run("--quiet", "score", "--data", data, "--psi2", 0, "--eta", 0.01,
               "--out", with_eta) == 0
    assert run("--quiet", "score", "--data", data, "--psi2", 0,
               "--out", without) == 0
    assert with_eta.read_bytes() == without.read_bytes()


def test_score_rejects_eta_mismatch(tmp_path):
    net = tmp_path / "net.json"
    data = tmp_path / "data.csv"
    table = tmp_path / "beta.json"
    run("--quiet", "gen-net", "--n", 3, "--d", 1, "--seed", 1, "--out", net)
    run("--quiet", "gen-data", "--net", net, "--rows", 50, "--seed", 2, "--out", data)
    run("--quiet", "beta-table", "--eta", 0.01, "--n-grid", "50",
        "--gamma-grid", "0.005", "--samples", 1000, "--seed", 3, "--out", table)
    with pytest.raises(SystemExit):
        run("--quiet", "score", "--data", data, "--beta-table", table,
            "--eta", 0.02, "--out", tmp_path / "s.txt")
    # omitted --eta falls back to the table's value
    assert run("--quiet", "score", "--data", data, "--beta-table", table,
               "--out", tmp_path / "s.txt") == 0


def test_global_seed_flag(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run("--quiet", "--seed", 9, "gen-net", "--n", 4, "--d", 2, "--out", a)
    run("--quiet", "gen-net", "--n", 4, "--d", 2, "--seed", 9, "--out", b)
    assert a.read_text() == b.read_text()


def test_experiment_command(tmp_path):
    table = tmp_path / "beta.json"
    run("--quiet", "beta-table", "--eta", 0.01, "--n-grid", "100,1000",
        "--gamma-grid", "0,0.005", "--samples", 5000, "--seed", 1, "--out", table)
    cfg = {
        "network": {"n": 3, "d": 1},
        "N_schedule": [200],
        "methods": [["bic", "dp"], ["boost", "dp"]],
        "seeds": [0, 1],
        "eta": 0.01,
        "d": 1,
        "beta_table": str(table),
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "results.csv"
    assert run("--quiet", "experiment", "--config", cfg_path, "--out", out) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("seed,n,d,N,score_name")
    assert len(lines) == 1 + 4 + 2  # header, 4 runs, 2 mean rows
