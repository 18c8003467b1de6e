"""Markov-equivalence-aware evaluation and the synthetic-data harness.

A learned structure only identifies its Markov equivalence class, so graphs
are compared after conversion to the class's completed PDAG: compelled
edges stay directed, reversible edges become undirected. The distance
between two PDAGs counts one unit per pair-level mismatch (missing edge,
extra edge, or orientation/type disagreement).
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field, replace

from .beta import BetaTable, load_table
from .data import (
    Dag, check_count, derived_seed, is_integer, json_field, load_network,
    random_network, sample,
)
from .scoring import ScoreConfig, build_parent_set_scores, check_table
from .search import brute_force, exact_dp, greedy_hill_climb

__all__ = [
    "Pdag",
    "ExperimentConfig",
    "dag_to_cpdag",
    "shd",
    "run_experiment",
    "rows_to_csv",
    "experiment_config_from_dict",
    "CSV_COLUMNS",
]

log = logging.getLogger(__name__)

CSV_COLUMNS = (
    "seed", "n", "d", "N", "score_name", "eta", "search_method",
    "shd", "total_score", "score_build_ms", "search_ms",
)


@dataclass(frozen=True)
class Pdag:
    """Partially directed graph: disjoint directed and undirected edge sets."""

    n: int
    directed: frozenset[tuple[int, int]]
    undirected: frozenset[tuple[int, int]]  # stored as (min, max)

    def __post_init__(self):
        check_count("n", self.n, 1)
        und = frozenset(tuple(sorted(e)) for e in self.undirected)
        object.__setattr__(self, "undirected", und)
        object.__setattr__(self, "directed", frozenset(self.directed))
        pairs = set()
        for u, v in self.directed:
            if u == v or not all(is_integer(x) and 0 <= x < self.n for x in (u, v)):
                raise ValueError(f"bad directed edge ({u}, {v})")
            pairs.add((min(u, v), max(u, v)))
        if len(pairs) != len(self.directed):
            raise ValueError("conflicting directed edges on one pair")
        for u, v in und:
            if u == v or not all(is_integer(x) and 0 <= x < self.n for x in (u, v)):
                raise ValueError(f"bad undirected edge ({u}, {v})")
            if (u, v) in pairs:
                raise ValueError(f"pair ({u}, {v}) is both directed and undirected")

    def skeleton(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            {(min(u, v), max(u, v)) for u, v in self.directed} | self.undirected
        )


def _order_edges(dag: Dag) -> list[tuple[int, int]]:
    """Total order on edges: children by topological position, and within a
    child the parents from latest to earliest position."""
    pos = {node: k for k, node in enumerate(dag.topological_order())}
    return sorted(dag.edges, key=lambda e: (pos[e[1]], -pos[e[0]]))


def dag_to_cpdag(dag: Dag) -> Pdag:
    """Completed PDAG of the Markov equivalence class of dag.

    Order-based compelled-edge labeling (Chickering 1995) in one walk of
    the edges in the canonical order. An edge x -> y that is still
    unlabeled takes compelled status from x's compelled incoming edges and
    from v-structure witnesses, and labeling it labels every edge into y.
    An edge already labeled is skipped: labels only ever leave unknown, and
    the walk has passed every edge into x, so the next unlabeled edge in
    the walk is always the lowest-ordered one.
    """
    edges = _order_edges(dag)
    UNKNOWN, COMPELLED, REVERSIBLE = 0, 1, 2
    label = dict.fromkeys(edges, UNKNOWN)
    for x, y in edges:
        if label[(x, y)] != UNKNOWN:
            continue
        for w in dag.parents(x):
            if label[(w, x)] != COMPELLED:
                continue
            if w not in dag.parents(y):
                for z in dag.parents(y):
                    label[(z, y)] = COMPELLED
                break
            label[(w, y)] = COMPELLED
        else:
            witness = any(z != x and z not in dag.parents(x) for z in dag.parents(y))
            verdict = COMPELLED if witness else REVERSIBLE
            for z in dag.parents(y):
                if label[(z, y)] == UNKNOWN:
                    label[(z, y)] = verdict

    directed = frozenset(e for e in edges if label[e] == COMPELLED)
    undirected = frozenset(e for e in edges if label[e] == REVERSIBLE)
    return Pdag(dag.n, directed, undirected)


def shd(p1: Pdag, p2: Pdag) -> int:
    """Structural Hamming distance: pair-level additions, deletions, and
    orientation or type mismatches, one unit each."""
    if p1.n != p2.n:
        raise ValueError(f"node counts differ: {p1.n} != {p2.n}")
    # pair (min, max) -> its directed edge, or "und"
    k1, k2 = ({(min(e), max(e)): e for e in p.directed} | dict.fromkeys(p.undirected, "und")
              for p in (p1, p2))
    # missing, extra, dir-vs-und, or oppositely directed
    return sum(k1.get(pair) != k2.get(pair) for pair in k1.keys() | k2.keys())


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """One synthetic-recovery experiment: networks, sample sizes, methods."""

    N_schedule: list[int]
    methods: list[tuple[str, str]]  # (score_name in {bic, boost}, search method)
    seeds: list[int]
    n: int = 8
    d: int = 2
    network_path: str | None = None
    score: ScoreConfig = field(default_factory=ScoreConfig)
    beta_table_path: str | None = None
    restarts: int = 10

    def __post_init__(self):
        sizes = self.N_schedule
        for N in sizes:
            check_count("N", N, 1)
        if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"N_schedule {sizes} must ascend from >= 1")
        check_count("n", self.n, 1)
        check_count("d", self.d, 0)
        check_count("restarts", self.restarts, 1)
        if len(set(self.seeds)) != len(self.seeds) or not self.seeds:
            raise ValueError("seeds must be nonempty and distinct")
        for seed in self.seeds:
            check_count("seed", seed, 0)
        if not self.methods:
            raise ValueError("methods must be nonempty")
        for score_name, method in self.methods:
            if score_name not in ("bic", "boost"):
                raise ValueError(f"unknown score {score_name!r}")
            if method not in ("dp", "greedy", "brute"):
                raise ValueError(f"unknown search method {method!r}")


def _search(table, method: str, restarts: int, seed: int):
    if method == "dp":
        return exact_dp(table)
    if method == "greedy":
        return greedy_hill_climb(table, restarts=restarts, seed=seed)
    return brute_force(table)


def run_experiment(cfg: ExperimentConfig, beta_table: BetaTable | None = None) -> list[dict]:
    """One row per (seed, N, method) plus per-(N, method) mean rows.

    Per run: draw (or load) the generating network, sample a fresh dataset
    of N rows, fold the configured score into a parent-set table, search,
    and record the SHD between the completed PDAGs of truth and the learned
    graph. Failures are logged and leave their row's result fields empty.
    Each seed row also holds the learned Dag under "dag" (None on failure),
    which is not a CSV column.
    """
    if beta_table is None and any(s == "boost" for s, _ in cfg.methods):
        if cfg.beta_table_path is None:
            raise ValueError("boost methods need a beta table")
        beta_table = load_table(cfg.beta_table_path)
    if beta_table is not None:
        check_table(beta_table, cfg.score)

    bic = replace(cfg.score, psi2=0.0)
    shared_net = load_network(cfg.network_path) if cfg.network_path else None
    rows: list[dict] = []
    for seed in sorted(cfg.seeds):
        net = shared_net if shared_net is not None else random_network(cfg.n, cfg.d, seed)
        truth = dag_to_cpdag(net.dag)
        for n_rows in cfg.N_schedule:
            data = sample(net, n_rows, derived_seed(seed, n_rows))
            for m_idx, (score_name, method) in enumerate(cfg.methods):
                row = {
                    "seed": seed, "n": net.n, "d": cfg.d, "N": n_rows,
                    "score_name": score_name, "eta": cfg.score.eta,
                    "search_method": method, "shd": "", "total_score": "",
                    "score_build_ms": "", "search_ms": "", "dag": None,
                }
                try:
                    run_cfg = cfg.score if score_name == "boost" else bic
                    t0 = time.perf_counter()
                    table = build_parent_set_scores(
                        data, beta_table if score_name == "boost" else None, run_cfg
                    )
                    build_ms = (time.perf_counter() - t0) * 1e3
                    result = _search(
                        table, method, cfg.restarts, derived_seed(seed, n_rows, m_idx)
                    )
                    row["shd"] = shd(truth, dag_to_cpdag(result.dag))
                    row["total_score"] = result.score
                    row["score_build_ms"] = build_ms
                    row["search_ms"] = result.runtime_ms
                    row["dag"] = result.dag
                except Exception:
                    log.exception(
                        "run failed: seed=%s N=%s method=%s/%s",
                        seed, n_rows, score_name, method,
                    )
                rows.append(row)

    rows.sort(key=lambda r: (r["N"], r["score_name"], r["search_method"], r["seed"]))
    means: list[dict] = []
    for n_rows in cfg.N_schedule:
        for score_name, method in sorted(set(cfg.methods)):
            group = [
                r for r in rows
                if r["N"] == n_rows and r["score_name"] == score_name
                and r["search_method"] == method and r["shd"] != ""
            ]
            if not group:
                continue
            means.append({
                "seed": "mean", "n": group[0]["n"], "d": cfg.d, "N": n_rows,
                "score_name": score_name, "eta": cfg.score.eta,
                "search_method": method,
                **{k: sum(r[k] for r in group) / len(group)
                   for k in ("shd", "total_score", "score_build_ms", "search_ms")},
            })
    return rows + means


def _fmt_cell(key: str, value) -> str:
    if value == "" or isinstance(value, str):
        return str(value)
    if key in ("score_build_ms", "search_ms"):
        return format(float(value), ".3f")
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt_cell(c, row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def experiment_config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from the JSON document accepted by the CLI; a document
    of another shape raises ValueError naming the key."""
    where = "experiment config"
    network = json_field(doc, "network", dict, where, {})
    score = ScoreConfig(**{k: json_field(doc, k, type(v), where, v)  # kinds as the defaults'
                           for k, v in asdict(ScoreConfig()).items()})
    methods = json_field(doc, "methods", list, where, each=list)
    if any(len(pair) != 2 for pair in methods):
        raise ValueError(f"{where} key 'methods' is {methods!r}, not a list of pairs")
    return ExperimentConfig(
        N_schedule=json_field(doc, "N_schedule", list, where, each=int),
        methods=[(str(a), str(b)) for a, b in methods],
        seeds=json_field(doc, "seeds", list, where, each=int),
        n=json_field(network, "n", int, f"{where} network", ExperimentConfig.n),
        d=json_field(network, "d", int, f"{where} network", score.d),
        network_path=json_field(network, "path", str, f"{where} network", None),
        score=score,
        beta_table_path=json_field(doc, "beta_table", str, where, None),
        restarts=json_field(doc, "restarts", int, where, ExperimentConfig.restarts),
    )
