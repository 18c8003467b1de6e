"""Bayesian network structure learning with independence-test sparsity boosts.

The score is BIC plus, for every nonadjacent pair, the log-confidence that
a conditional MI test correctly calls the pair independent (-ln of the
test's Type II error). Submodules: dist2x2 (2x2 joint distributions),
beta (Type II error computation and tables), data (datasets and synthetic
networks), scoring (the score and its parent-set decomposition), search
(exact and greedy structure search), evaluate (CPDAG/SHD and experiments),
cli (command-line interface).
"""

from .dist2x2 import (
    JointDist2x2,
    find_t_plus,
    kl_divergence,
    mutual_information,
    reference_dist,
)
from .beta import (
    BetaTable,
    beta_bruteforce,
    beta_exact,
    beta_mc,
    build_table,
    load_table,
    query_neg_ln_beta,
    save_table,
)
from .data import (
    BinaryDataset,
    Dag,
    Network,
    load_dataset,
    load_network,
    random_network,
    sample,
    save_dataset,
    save_network,
)
from .scoring import (
    ParentSetScoreTable,
    ScoreConfig,
    build_parent_set_scores,
    dim,
    edge_strength,
    load_scores,
    save_scores,
    total_score,
)
from .search import SearchResult, brute_force, exact_dp, greedy_hill_climb
from .evaluate import ExperimentConfig, Pdag, dag_to_cpdag, run_experiment, shd

__version__ = "0.1.0"

__all__ = [
    "JointDist2x2", "find_t_plus", "kl_divergence", "mutual_information",
    "reference_dist",
    "BetaTable", "beta_bruteforce", "beta_exact", "beta_mc", "build_table",
    "load_table", "query_neg_ln_beta", "save_table",
    "BinaryDataset", "Dag", "Network", "load_dataset", "load_network",
    "random_network", "sample", "save_dataset", "save_network",
    "ParentSetScoreTable", "ScoreConfig", "build_parent_set_scores", "dim",
    "edge_strength", "load_scores", "save_scores", "total_score",
    "SearchResult", "brute_force", "exact_dp", "greedy_hill_climb",
    "ExperimentConfig", "Pdag", "dag_to_cpdag", "run_experiment", "shd",
]
