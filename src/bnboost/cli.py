"""Command-line entry points.

Subcommands cover the full pipeline: generate a synthetic network, sample
data, precompute a beta table, fold a score into parent-set form, search
for the best structure, compare structures, and drive whole experiments
from a JSON config. Each subcommand that draws random numbers takes its
own --seed, 0 by default. Every refused input, whether a flag value, an
unreadable file, file content or config, ends as a usage error with exit
status 2.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys

from .beta import build_table, load_table, save_table
from .data import (
    Dag,
    load_dataset,
    load_json,
    load_network,
    load_structure,
    random_network,
    read_variable_names,
    sample,
    save_dataset,
    save_network,
    save_structure,
)
from .evaluate import (
    dag_to_cpdag,
    experiment_config_from_dict,
    rows_to_csv,
    run_experiment,
    shd,
)
from .scoring import (
    ScoreConfig,
    build_parent_set_scores,
    check_table,
    load_scores,
    save_scores,
)
from .search import brute_force, exact_dp, greedy_hill_climb

log = logging.getLogger("bnboost")


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _cmd_gen_net(args) -> int:
    net = random_network(args.n, args.d, args.seed)
    save_network(net, args.out)
    log.info("wrote network with %d nodes, %d edges to %s",
             net.n, len(net.dag.edges), args.out)
    return 0


def _cmd_gen_data(args) -> int:
    net = load_network(args.net)
    data = sample(net, args.rows, args.seed)
    save_dataset(data, args.out)
    log.info("wrote %d rows of %d variables to %s",
             data.n_rows, data.n_vars, args.out)
    return 0


def _cmd_beta_table(args) -> int:
    table = build_table(
        args.eta,
        N_grid=args.n_grid,
        gamma_grid=args.gamma_grid,
        samples=args.samples,
        seed=args.seed,
    )
    save_table(table, args.out)
    log.info("wrote beta table (%d x %d cells) to %s",
             len(table.N_grid), len(table.gamma_grid), args.out)
    return 0


def _cmd_score(args) -> int:
    data = load_dataset(args.data)
    table = load_table(args.beta_table) if args.beta_table else None
    eta = args.eta
    if eta is None:  # without a table only BIC runs, and it reads no eta
        eta = table.eta if table is not None else ScoreConfig.eta
    cfg = ScoreConfig(eta=eta, kappa=args.kappa, psi2=args.psi2, d=args.d)
    check_table(table, cfg)  # also at psi2 = 0, where a table given goes unused
    scores = build_parent_set_scores(data, table, cfg)
    save_scores(scores, args.out)
    log.info("wrote parent-set scores for %d nodes to %s", scores.n, args.out)
    return 0


def _cmd_learn(args) -> int:
    table = load_scores(args.scores)
    if args.names:
        names = read_variable_names(args.names)
        if len(names) != table.n:
            raise ValueError("--names dataset has the wrong variable count")
        table.variable_names = names
    if args.method == "dp":
        result = exact_dp(table)
    elif args.method == "greedy":
        result = greedy_hill_climb(table, restarts=args.restarts, seed=args.seed)
    else:
        result = brute_force(table)
    save_structure(table.variable_names, result.dag, args.out)
    log.info("%s search: score %.6f, %d edges, %.1f ms",
             result.method, result.score, len(result.dag.edges), result.runtime_ms)
    return 0


def _cmd_eval(args) -> int:
    names_t, dag_t = load_structure(args.true)
    names_l, dag_l = load_structure(args.learned)
    if set(names_t) != set(names_l):
        raise ValueError("the two structures name different variables")
    if names_t != names_l:  # align the learned graph to the truth's order
        pos = {name: k for k, name in enumerate(names_t)}
        remap = [pos[name] for name in names_l]
        dag_l = Dag(dag_t.n, frozenset((remap[u], remap[v]) for u, v in dag_l.edges))
    distance = shd(dag_to_cpdag(dag_t), dag_to_cpdag(dag_l))
    print(distance)
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_json(args.config, experiment_config_from_dict)
    rows = run_experiment(cfg)
    text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        log.info("wrote %d result rows to %s", len(rows), args.out)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache  # built once per process; every main call reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnboost",
        description="Bayesian network structure learning with "
                    "independence-test sparsity boosts",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress logs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-net", help="generate a random logistic network")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--d", type=int, required=True, help="max in-degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_net)

    p = sub.add_parser("gen-data", help="sample observations from a network")
    p.add_argument("--net", required=True, help="network JSON path")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("beta-table", help="precompute -ln(beta) over an (N, gamma) grid")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--n-grid", type=_int_list, default=None,
                   help="comma-separated sample sizes")
    p.add_argument("--gamma-grid", type=_float_list, default=None,
                   help="comma-separated MI thresholds")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_beta_table)

    p = sub.add_parser("score", help="fold a score into parent-set form")
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--beta-table", default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--psi2", type=float, default=1.0)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("learn", help="search for the best-scoring structure")
    p.add_argument("--scores", required=True, help="parent-set scores path")
    p.add_argument("--method", choices=("dp", "greedy", "brute"), default="dp")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--names", default=None,
                   help="optional dataset CSV supplying variable names; "
                        "only its header row is read")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("eval", help="SHD between two structures' equivalence classes")
    p.add_argument("--true", required=True, help="network or structure JSON")
    p.add_argument("--learned", required=True, help="network or structure JSON")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("experiment", help="run a full recovery experiment")
    p.add_argument("--config", required=True, help="experiment JSON path")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. Every refusal is a ValueError, raised here or in
    the library, such as a bad argument value, a malformed input file or
    structures that do not match, or an OSError naming a file that cannot
    be opened. It is reported the way argparse reports a bad flag: a usage
    error on stderr and exit status 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
