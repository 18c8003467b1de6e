"""The benchmark's four structure-learning workloads and their output checks.

Every workload draws its generating networks from a fixed pool of
NETWORKS random networks (fixed seeds, the same in every run), and its
datasets and experiment seeds from the workload seed. Averaging over the
same pool in every run keeps a run's mean SHD a property of the program
rather than of which networks the seed happened to draw; the data still
changes with the seed. Job i uses network i % NETWORKS, so any run of at
least NETWORKS jobs covers the whole pool.

A job calls bnboost only through module attributes (bnboost.search.exact_dp,
not a name bound at import time), so that the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import bnboost
import bnboost.cli
import bnboost.data
import bnboost.evaluate
import bnboost.scoring
import bnboost.search

ETA = 0.01
KAPPA = 0.5
D = 2
BOOST = bnboost.scoring.ScoreConfig(eta=ETA, kappa=KAPPA, psi2=1.0, d=D)
BIC = bnboost.scoring.ScoreConfig(eta=ETA, kappa=KAPPA, psi2=0.0, d=D)

NETWORKS = 8
NETWORK_SEED = 7000  # pool network j is random_network(n, D, NETWORK_SEED + j)
REL_TOL = 1e-9


class CheckFailed(Exception):
    """A job's output failed one of the benchmark's checks."""


def job_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0])


def network_pool(n: int) -> list:
    return [bnboost.data.random_network(n, D, NETWORK_SEED + j) for j in range(NETWORKS)]


def check_graph(data, cfg, beta_table, dag, score: float, floor: float) -> None:
    """The learned DAG is acyclic with in-degree <= d, its score is the
    data's total_score to REL_TOL, and it is no worse than `floor`."""
    try:
        dag = bnboost.data.Dag(dag.n, dag.edges)  # rebuilt: raises if cyclic
        dag.check_in_degree(cfg.d)
    except ValueError as exc:
        raise CheckFailed(f"learned graph is invalid: {exc}") from None
    recomputed = bnboost.scoring.total_score(
        data, dag, beta_table if cfg.psi2 > 0.0 else None, cfg
    )
    if not math.isclose(score, recomputed, rel_tol=REL_TOL):
        raise CheckFailed(f"search score {score!r} != total_score {recomputed!r}")
    if score < floor - REL_TOL * abs(floor):
        raise CheckFailed(f"search score {score!r} below its floor {floor!r}")


def cpdag_shd(true_dag, learned_dag) -> int:
    ev = bnboost.evaluate
    return ev.shd(ev.dag_to_cpdag(true_dag), ev.dag_to_cpdag(learned_dag))


class Workload:
    """One fixed kind of job. prepare() makes every input before timing;
    run(i) is job i; check(i, output) raises CheckFailed or returns the
    SHDs of the job's learned graphs."""

    name = ""
    min_jobs = NETWORKS  # a run measures at least this many jobs

    def __init__(self, seed: int, workdir: Path, beta_table):
        self.seed = seed
        self.workdir = workdir
        self.beta_table = beta_table

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> list[int]:
        raise NotImplementedError


class RecoveryN8(Workload):
    """The paper's own experiment; beta queries take most of a job."""

    name = "recovery-n8"
    min_jobs = 2 * NETWORKS

    def prepare(self) -> None:
        self.nets = network_pool(8)
        paths = []
        for j, net in enumerate(self.nets):
            path = self.workdir / f"net{j}.json"
            bnboost.data.save_network(net, path)
            paths.append(str(path))
        self.paths = paths
        # run_experiment hides its score tables and search results; record
        # them at the two calls it makes, so every learned graph is checked.
        self._graphs: list[dict] = []
        ev = bnboost.evaluate
        build, dp = ev.build_parent_set_scores, ev.exact_dp

        def recording_build(data, table, cfg):
            scores = build(data, table, cfg)
            self._graphs.append({"data": data, "cfg": cfg, "scores": scores})
            return scores

        def recording_dp(scores):
            result = dp(scores)
            self._graphs[-1]["result"] = result
            return result

        ev.build_parent_set_scores = recording_build
        ev.exact_dp = recording_dp

    def config(self, i: int):
        return bnboost.evaluate.ExperimentConfig(
            N_schedule=[500, 5000],
            methods=[("bic", "dp"), ("boost", "dp")],
            seeds=[job_seed(self.seed, i)],
            n=8, d=D,
            network_path=self.paths[i % NETWORKS],
            score=BOOST,
        )

    def run(self, i: int):
        self._graphs = []
        rows = bnboost.evaluate.run_experiment(self.config(i), beta_table=self.beta_table)
        return rows, self._graphs

    def check(self, i: int, output) -> list[int]:
        rows, graphs = output
        net = self.nets[i % NETWORKS]
        by_key = {(g["data"].n_rows, g["cfg"].psi2 > 0.0): g for g in graphs}
        shds = []
        seed_rows = [r for r in rows if r["seed"] != "mean"]
        if len(seed_rows) != 4:
            raise CheckFailed(f"expected 4 result rows, got {len(seed_rows)}")
        for row in seed_rows:
            if row["shd"] == "":
                raise CheckFailed(f"run failed: N={row['N']} {row['score_name']}")
            g = by_key.get((row["N"], row["score_name"] == "boost"))
            if g is None or "result" not in g:
                raise CheckFailed(f"no search recorded for N={row['N']}")
            result = g["result"]
            if row["total_score"] != result.score:
                raise CheckFailed("row total_score differs from the search's score")
            check_graph(g["data"], g["cfg"], self.beta_table, result.dag,
                        result.score, g["scores"].dag_score(net.dag))
            if row["shd"] != cpdag_shd(net.dag, result.dag):
                raise CheckFailed("row shd differs from the recomputed SHD")
            shds.append(row["shd"])
        return shds


class PooledData(Workload):
    """Jobs over datasets drawn before timing: dataset i comes from network
    i % NETWORKS with a seed derived from (workload seed, i). A run that
    outlasts the pool reuses datasets from its start."""

    n = 0
    rows = 0
    pool = 0

    def prepare(self) -> None:
        self.nets = network_pool(self.n)
        self.data = [
            bnboost.data.sample(self.nets[i % NETWORKS], self.rows, job_seed(self.seed, i))
            for i in range(self.pool)
        ]

    def inputs(self, i: int):
        return self.nets[i % NETWORKS], self.data[i % self.pool]


class BicDpN18(PooledData):
    """exact_dp takes most of a job and sets peak memory; no beta query runs."""

    name = "bic-dp-n18"
    n, rows, pool = 18, 2000, 48

    def run(self, i: int):
        _, data = self.inputs(i)
        scores = bnboost.scoring.build_parent_set_scores(data, None, BIC)
        return scores, bnboost.search.exact_dp(scores)

    def check(self, i: int, output) -> list[int]:
        scores, result = output
        net, data = self.inputs(i)
        check_graph(data, BIC, None, result.dag, result.score,
                    scores.dag_score(net.dag))
        return [cpdag_shd(net.dag, result.dag)]


class BoostBigN8(PooledData):
    """Stratified counting over many rows; unconditional queries off the N grid."""

    name = "boost-bigN-n8"
    min_jobs = 2 * NETWORKS
    n, rows, pool = 8, 50_000, 48
    restarts = 10

    def run(self, i: int):
        _, data = self.inputs(i)
        scores = bnboost.scoring.build_parent_set_scores(data, self.beta_table, BOOST)
        result = bnboost.search.greedy_hill_climb(
            scores, restarts=self.restarts, seed=job_seed(self.seed, i)
        )
        return scores, result

    def check(self, i: int, output) -> list[int]:
        scores, result = output
        net, data = self.inputs(i)
        empty = bnboost.data.Dag(net.n, frozenset())
        check_graph(data, BOOST, self.beta_table, result.dag, result.score,
                    scores.dag_score(empty))
        return [cpdag_shd(net.dag, result.dag)]


class CliBicN12(Workload):
    """The only workload through the cli layer and the file formats."""

    name = "cli-bic-n12"
    min_jobs = 3 * NETWORKS
    n, rows = 12, 20_000
    pool = 3 * NETWORKS  # CSV f comes from network f % NETWORKS

    def prepare(self) -> None:
        self.nets = network_pool(self.n)
        for j, net in enumerate(self.nets):
            bnboost.data.save_network(net, self.workdir / f"net{j}.json")
        self.data = []
        for f in range(self.pool):
            data = bnboost.data.sample(self.nets[f % NETWORKS], self.rows,
                                       job_seed(self.seed, f))
            bnboost.data.save_dataset(data, self.workdir / f"data{f}.csv")
            self.data.append(data)

    def _paths(self, i: int):
        w = self.workdir
        return (w / f"data{i % self.pool}.csv", w / f"net{i % NETWORKS}.json",
                w / f"job{i}.scores", w / f"job{i}.json")

    def run(self, i: int):
        csv, net, scores, learned = map(str, self._paths(i))
        main = bnboost.cli.main
        codes = [
            main(["--quiet", "score", "--data", csv, "--eta", str(ETA),
                  "--kappa", str(KAPPA), "--psi2", "0", "--d", str(D),
                  "--out", scores]),
            main(["--quiet", "learn", "--scores", scores, "--method", "dp",
                  "--names", csv, "--out", learned]),
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(main(["--quiet", "eval", "--true", net, "--learned", learned]))
        return codes, out.getvalue()

    def check(self, i: int, output) -> list[int]:
        codes, printed = output
        if codes != [0, 0, 0]:
            raise CheckFailed(f"exit codes {codes}")
        _, _, scores_path, learned_path = self._paths(i)
        net = self.nets[i % NETWORKS]
        with open(learned_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        pos = {name: k for k, name in enumerate(net.variable_names)}
        if sorted(doc["variables"]) != sorted(pos):
            raise CheckFailed("learned structure names other variables")
        try:
            dag = bnboost.data.Dag(net.n, frozenset(
                (pos[u], pos[v]) for u, v in doc["edges"]))
        except ValueError as exc:
            raise CheckFailed(f"learned graph is invalid: {exc}") from None
        scores = bnboost.scoring.load_scores(scores_path)
        check_graph(self.data[i % self.pool], BIC, None, dag, scores.dag_score(dag),
                    scores.dag_score(net.dag))
        distance = cpdag_shd(net.dag, dag)
        if printed.strip() != str(distance):
            raise CheckFailed(f"eval printed {printed.strip()!r}, in-process SHD {distance}")
        return [distance]


WORKLOADS = {w.name: w for w in (RecoveryN8, BicDpN18, BoostBigN8, CliBicN12)}
