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


def usage_error(capsys, *argv):
    """stderr of a run that must end as a usage error, with exit status 2."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run("--quiet", *argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bnboost")
    return err


def test_eval_names_the_bad_variable(tmp_path, capsys):
    net = tmp_path / "net.json"
    run("--quiet", "gen-net", "--n", 3, "--d", 1, "--seed", 1, "--out", net)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"variables": ["X0", "X1", "X2"],
                                   "edges": [["X0", "Q"]]}))
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps({"variables": ["X0", "X1", "X1"], "edges": []}))
    assert "'Q'" in usage_error(capsys, "eval", "--true", net, "--learned", unknown)
    assert "'X1'" in usage_error(capsys, "eval", "--true", twice, "--learned", net)


def test_score_requires_table_for_boost(tmp_path, capsys):
    net = tmp_path / "net.json"
    data = tmp_path / "data.csv"
    run("--quiet", "gen-net", "--n", 3, "--d", 1, "--seed", 1, "--out", net)
    run("--quiet", "gen-data", "--net", net, "--rows", 50, "--seed", 2, "--out", data)
    err = usage_error(capsys, "score", "--data", data, "--eta", 0.01,
                      "--out", tmp_path / "s.txt")
    assert "bnboost: error: a beta table is required when psi2 > 0" in err
    assert not (tmp_path / "s.txt").exists()


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


def test_score_rejects_eta_mismatch(tmp_path, capsys):
    net = tmp_path / "net.json"
    data = tmp_path / "data.csv"
    table = tmp_path / "beta.json"
    scores = tmp_path / "s.txt"
    run("--quiet", "gen-net", "--n", 3, "--d", 1, "--seed", 1, "--out", net)
    run("--quiet", "gen-data", "--net", net, "--rows", 50, "--seed", 2, "--out", data)
    run("--quiet", "beta-table", "--eta", 0.01, "--n-grid", "50",
        "--gamma-grid", "0.005", "--samples", 1000, "--seed", 3, "--out", table)
    # refused also at psi2 = 0, where the table would go unused
    for psi2 in (1.0, 0):
        err = usage_error(capsys, "score", "--data", data, "--beta-table", table,
                          "--eta", 0.02, "--psi2", psi2, "--out", scores)
        assert "bnboost: error: beta table eta 0.01 != score eta 0.02" in err
    assert not scores.exists()
    # omitted --eta falls back to the table's value
    assert run("--quiet", "score", "--data", data, "--beta-table", table,
               "--out", scores) == 0


def test_subcommand_seed_defaults_to_zero(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run("--quiet", "gen-net", "--n", 4, "--d", 2, "--out", a)
    run("--quiet", "gen-net", "--n", 4, "--d", 2, "--seed", 0, "--out", b)
    assert a.read_text() == b.read_text()


def test_learn_refuses_names_of_another_variable_count(tmp_path, capsys):
    net, data, scores = tmp_path / "net.json", tmp_path / "data.csv", tmp_path / "s.txt"
    wide, learned = tmp_path / "wide.csv", tmp_path / "learned.json"
    run("--quiet", "gen-net", "--n", 3, "--d", 1, "--seed", 1, "--out", net)
    run("--quiet", "gen-data", "--net", net, "--rows", 50, "--seed", 2, "--out", data)
    run("--quiet", "score", "--data", data, "--psi2", 0, "--out", scores)
    wide.write_text("A,B,C,D\n0,1,0,1\n")
    err = usage_error(capsys, "learn", "--scores", scores, "--names", wide,
                      "--out", learned)
    assert "bnboost: error: --names dataset has the wrong variable count" in err
    assert not learned.exists()


def test_learn_reads_only_the_header_of_names(tmp_path):
    net, data, scores = tmp_path / "net.json", tmp_path / "data.csv", tmp_path / "s.txt"
    names, learned = tmp_path / "names.csv", tmp_path / "learned.json"
    run("--quiet", "gen-net", "--n", 3, "--d", 1, "--seed", 1, "--out", net)
    run("--quiet", "gen-data", "--net", net, "--rows", 50, "--seed", 2, "--out", data)
    run("--quiet", "score", "--data", data, "--psi2", 0, "--out", scores)
    names.write_text("p,q,r\n0,1\nnot,a,row,at,all\n")
    assert run("--quiet", "learn", "--scores", scores, "--names", names,
               "--out", learned) == 0
    assert json.loads(learned.read_text())["variables"] == ["p", "q", "r"]


def test_eval_refuses_structures_of_other_variables(tmp_path, capsys):
    truth, learned = tmp_path / "truth.json", tmp_path / "learned.json"
    truth.write_text(json.dumps({"variables": ["A", "B"], "edges": [["A", "B"]]}))
    learned.write_text(json.dumps({"variables": ["A", "C"], "edges": []}))
    err = usage_error(capsys, "eval", "--true", truth, "--learned", learned)
    assert "bnboost: error: the two structures name different variables" in err


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


def test_library_value_errors_are_usage_errors(tmp_path, capsys):
    table = tmp_path / "beta.json"
    beta_args = ("beta-table", "--eta", 0.01, "--n-grid", 500, "--gamma-grid", 0.005,
                 "--out", table)
    err = usage_error(capsys, *beta_args, "--samples", 1000, "--seed", -1)
    assert "bnboost: error: seed=-1 must be an integer >= 0" in err
    err = usage_error(capsys, *beta_args, "--samples", 0, "--seed", 1)
    assert "bnboost: error: samples=0 must be an integer >= 1" in err
    err = usage_error(capsys, "beta-table", "--eta", 0.01, "--gamma-grid", "0,nan",
                      "--out", table)
    assert "bnboost: error: gamma_grid [0.0, nan] must be finite" in err
    assert not table.exists()

    net, data, scores = tmp_path / "net.json", tmp_path / "data.csv", tmp_path / "s.txt"
    run("--quiet", "gen-net", "--n", 3, "--d", 1, "--seed", 1, "--out", net)
    run("--quiet", "gen-data", "--net", net, "--rows", 50, "--seed", 2, "--out", data)
    run("--quiet", "score", "--data", data, "--psi2", 0, "--out", scores)
    err = usage_error(capsys, "learn", "--scores", scores, "--method", "greedy",
                      "--restarts", 0, "--out", tmp_path / "g.json")
    assert "bnboost: error: restarts=0 must be an integer >= 1" in err
    err = usage_error(capsys, "score", "--data", data, "--psi2", "nan", "--out", tmp_path / "n.txt")
    assert "bnboost: error: psi2=nan must be finite" in err
    assert not (tmp_path / "n.txt").exists()


def test_malformed_beta_table_is_a_usage_error(tmp_path, capsys):
    net, data, table = tmp_path / "net.json", tmp_path / "data.csv", tmp_path / "t.json"
    run("--quiet", "gen-net", "--n", 3, "--d", 1, "--seed", 1, "--out", net)
    run("--quiet", "gen-data", "--net", net, "--rows", 50, "--seed", 2, "--out", data)
    run("--quiet", "beta-table", "--eta", 0.01, "--n-grid", "50",
        "--gamma-grid", "0.005", "--samples", 1000, "--seed", 3, "--out", table)
    doc = json.loads(table.read_text())
    for bad, message in ((5, "beta table is not a JSON object"),
                         ({**doc, "N_grid": 5}, "beta table key 'N_grid' is 5, not a list")):
        table.write_text(json.dumps(bad))
        err = usage_error(capsys, "score", "--data", data, "--beta-table", table,
                          "--out", tmp_path / "s.txt")
        assert f"bnboost: error: {table}: {message}" in err


def test_malformed_network_is_a_usage_error(tmp_path, capsys):
    net, other = tmp_path / "net.json", tmp_path / "other.json"
    run("--quiet", "gen-net", "--n", 3, "--d", 1, "--seed", 1, "--out", other)
    no_cpds = {k: v for k, v in json.loads(other.read_text()).items() if k != "cpds"}
    data = ("gen-data", "--net", net, "--rows", 10, "--out", tmp_path / "d.csv")
    for argv, doc, message in (
        (data, {}, "document has no 'variables' key"),
        (data, no_cpds, "document has no 'cpds' key"),
        (("eval", "--true", net, "--learned", other), {}, "document has no 'variables' key"),
    ):
        net.write_text(json.dumps(doc))
        assert f"bnboost: error: {net}: {message}" in usage_error(capsys, *argv)


def test_malformed_experiment_config_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "exp.json"
    good = {"N_schedule": [100], "methods": [["bic", "dp"]], "seeds": [0], "network": {"n": 3}}
    for doc, message in (
        ({**good, "methods": []}, "methods must be nonempty"),
        ({**good, "seeds": [-1]}, "seed=-1 must be an integer >= 0"),
        ({**good, "network": {"n": 0, "d": -1}}, "n=0 must be an integer >= 1"),
        ({**good, "network": {"n": 3, "d": -1}}, "d=-1 must be an integer >= 0"),
        ({**good, "kappa": float("nan")}, "experiment config key 'kappa' is nan, not a finite number"),
        ({k: v for k, v in good.items() if k != "methods"},
         "experiment config has no 'methods' key"),
        ([good], "experiment config is not a JSON object"),
    ):
        config.write_text(json.dumps(doc))
        err = usage_error(capsys, "experiment", "--config", config)
        assert f"bnboost: error: {config}: {message}" in err


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A network, its data and their BIC scores, each in a readable file."""
    root = tmp_path_factory.mktemp("inputs")
    net, data, scores = root / "net.json", root / "data.csv", root / "s.txt"
    run("--quiet", "gen-net", "--n", 3, "--d", 1, "--seed", 1, "--out", net)
    run("--quiet", "gen-data", "--net", net, "--rows", 50, "--seed", 2, "--out", data)
    run("--quiet", "score", "--data", data, "--psi2", 0, "--out", scores)
    return net, data, scores


@pytest.mark.parametrize("argv", [
    ("gen-net", "--n", 4, "--d", 1), ("gen-data", "--rows", 10),
    ("learn", "--method", "greedy"),
], ids=lambda argv: argv[0])
def test_a_negative_seed_is_a_usage_error(inputs, tmp_path, capsys, argv):
    net, _, scores = inputs
    files = {"gen-net": (), "gen-data": ("--net", net), "learn": ("--scores", scores)}
    out = tmp_path / "out"
    err = usage_error(capsys, *argv, *files[argv[0]], "--seed", -1, "--out", out)
    assert "bnboost: error: seed=-1 must be an integer >= 0" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", [
    "--data", "--net", "--beta-table", "--scores", "--names", "--true", "--learned",
    "--config",
])
def test_an_unreadable_input_file_is_a_usage_error(inputs, tmp_path, capsys, flag):
    net, data, scores = inputs
    missing = tmp_path / "missing.file"
    out = tmp_path / "out"
    argv = {
        "--data": ("score", "--data", missing, "--psi2", 0, "--out", out),
        "--net": ("gen-data", "--net", missing, "--rows", 10, "--out", out),
        "--beta-table": ("score", "--data", data, "--beta-table", missing, "--out", out),
        "--scores": ("learn", "--scores", missing, "--out", out),
        "--names": ("learn", "--scores", scores, "--names", missing, "--out", out),
        "--true": ("eval", "--true", missing, "--learned", net),
        "--learned": ("eval", "--true", net, "--learned", missing),
        "--config": ("experiment", "--config", missing),
    }[flag]
    err = usage_error(capsys, *argv)
    assert "bnboost: error: " in err and str(missing) in err
    assert not out.exists()
