"""Structure scores: BIC and its independence-boosted extension.

The boosted score is BIC plus, for every nonadjacent pair (A, B), a
nonnegative reward max over separating sets S of the min over observed
assignments s of -ln(beta) at the conditional empirical MI. Confident
conditional independence earns a reward that grows with the sample count;
dependent pairs earn nothing once the empirical MI clears eta.

With bounded-size separating sets the per-pair reward does not depend on
the candidate graph, so the whole score decomposes into per-family terms
(ParentSetScoreTable) that combinatorial search can consume directly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .beta import BetaTable, neg_ln_beta_batch
from .data import BinaryDataset, Dag, Network
from .dist2x2 import JointDist2x2, mi_from_counts_batch, mutual_information

# Not called here. perfbench/tracing.py still wraps these two names in this
# module and fails to install without them; its beta.query.* and
# mi_from_counts counts read 0 until it wraps neg_ln_beta_batch instead.
from .beta import query_neg_ln_beta  # noqa: F401
from .dist2x2 import mi_from_counts  # noqa: F401

__all__ = [
    "ScoreConfig",
    "ParentSetScoreTable",
    "log_likelihood",
    "dim",
    "edge_boost",
    "pair_boosts",
    "total_score",
    "build_parent_set_scores",
    "edge_strength",
    "save_scores",
    "load_scores",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScoreConfig:
    """Knobs of the boosted score.

    eta: MI level treated as solid dependence (nats); kappa: weight of the
    ln(N) complexity penalty (1/2 gives BIC/MDL); psi2: weight on the boost
    sum; d: max in-degree and max separating-set size.
    """

    eta: float = 0.01
    kappa: float = 0.5
    psi2: float = 1.0
    d: int = 2

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError(f"eta={self.eta!r} must be > 0")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa={self.kappa!r} must be > 0")
        if self.psi2 < 0.0:
            raise ValueError(f"psi2={self.psi2!r} must be >= 0")
        if self.d < 0:
            raise ValueError(f"d={self.d} must be >= 0")


def _contingency(rows: np.ndarray, cols, weights=None) -> np.ndarray:
    """Joint counts of the binary columns cols of rows, flat over 2^len(cols)
    cells; column cols[j] is bit j of the cell index. With weights, each
    row adds its weight instead of 1."""
    idx = rows[:, cols[0]].astype(np.intp)
    for j, c in enumerate(cols[1:], start=1):
        idx += rows[:, c].astype(np.intp) << j
    return np.bincount(idx, weights=weights, minlength=1 << len(cols))


def _family_ll(data: BinaryDataset, i: int, parents) -> float:
    """Maximized log-likelihood contribution of node i given its parents."""
    counts = _contingency(data.rows, (i, *sorted(parents))).reshape(-1, 2)
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(
            counts > 0, counts * np.log(counts / np.maximum(totals, 1)), 0.0
        )
    return float(terms.sum())


def log_likelihood(data: BinaryDataset, dag: Dag) -> float:
    """Log-likelihood of the data under dag with MLE conditionals, in nats."""
    if dag.n != data.n_vars:
        raise ValueError("dag and dataset disagree on the variable count")
    return sum(_family_ll(data, i, dag.parents(i)) for i in range(dag.n))


def dim(dag: Dag) -> int:
    """Free parameters of the binary network: one per parent assignment."""
    return sum(2 ** dag.in_degree(i) for i in range(dag.n))


def _strata(data: BinaryDataset, pairs, d: int):
    """N_s and the empirical MI of a and b given S = s, for each pair (a, b)
    in pairs, each separating set S (|S| <= d) of the other variables and
    each assignment s, stacked in that order; with the first stratum of
    each separating set and the first separating set of each pair. MI reads
    0 where N_s = 0."""
    blocks, set_starts, pair_starts = [], [], []
    rows = 0
    for a, b in pairs:
        rest = [v for v in range(data.n_vars) if v != a and v != b]
        pair_starts.append(len(set_starts))
        for k in range(min(d, len(rest)) + 1):
            for sep in combinations(rest, k):
                # cells (s, a, b): b is bit 0, a bit 1, the separating set above
                blocks.append(_contingency(data.rows, (b, a, *sep)))
                set_starts.append(rows)
                rows += 1 << k
    counts = np.concatenate(blocks).reshape(-1, 4) if blocks else np.zeros((0, 4), int)
    n_s = counts.sum(axis=1)
    mi = mi_from_counts_batch(*counts.T)
    return n_s, mi, np.array(set_starts, int), np.array(pair_starts, int)


def _reduce_boosts(table: BetaTable, n_s, mi, set_starts, pair_starts) -> np.ndarray:
    """max over separating sets of the min over their assignments of
    -ln(beta) at (N_s, MI); an assignment never seen gives 0."""
    if pair_starts.size == 0:
        return np.zeros(0)
    seen = n_s > 0
    values = np.zeros(n_s.shape)
    values[seen] = neg_ln_beta_batch(table, n_s[seen], mi[seen])
    return np.maximum.reduceat(np.minimum.reduceat(values, set_starts), pair_starts)


def edge_boost(
    data: BinaryDataset,
    a: int,
    b: int,
    table: BetaTable,
    cfg: ScoreConfig,
    dag: Dag,
) -> float:
    """Independence reward for the nonadjacent pair (a, b) in dag.

    max over separating sets S of the min over observed assignments s of
    -ln(beta) at (N_s, empirical conditional MI); assignments never seen in
    the data contribute 0 to the min.
    """
    if dag.adjacent(a, b):
        raise ValueError(f"({a}, {b}) is an edge of the graph, no boost applies")
    return float(_reduce_boosts(table, *_strata(data, [(a, b)], cfg.d))[0])


def _log_strata(table: BetaTable, n_s, mi, set_starts, pair_starts) -> None:
    seen = n_s > 0
    interpolated = n_s[seen & (mi < table.eta)]  # the rest read 0, whatever N_s
    log.debug(
        "pair_boosts: %d pairs, %d separating sets, %d tables, %d queries "
        "(%d below eta: %d above and %d below the N grid), %d unseen assignments",
        pair_starts.size, set_starts.size, n_s.size, int(seen.sum()),
        interpolated.size, int((interpolated > table.N_grid[-1]).sum()),
        int((interpolated < table.N_grid[0]).sum()), int((~seen).sum()),
    )


def pair_boosts(data: BinaryDataset, table: BetaTable, cfg: ScoreConfig) -> dict:
    """Boost of every unordered pair; it does not depend on the graph."""
    pairs = list(combinations(range(data.n_vars), 2))
    strata = _strata(data, pairs, cfg.d)
    if log.isEnabledFor(logging.DEBUG):
        _log_strata(table, *strata)
    return dict(zip(pairs, _reduce_boosts(table, *strata).tolist()))


def total_score(
    data: BinaryDataset,
    dag: Dag,
    table: BetaTable | None,
    cfg: ScoreConfig,
) -> float:
    """LL - kappa*ln(N)*dim + psi2 * sum of boosts over nonadjacent pairs.

    psi2 = 0 reduces exactly to BIC and needs no beta table.
    """
    dag.check_in_degree(cfg.d)
    score = log_likelihood(data, dag) - cfg.kappa * math.log(data.n_rows) * dim(dag)
    if cfg.psi2 == 0.0:
        return score
    if table is None:
        raise ValueError("a beta table is required when psi2 > 0")
    pairs = [p for p in combinations(range(dag.n), 2) if not dag.adjacent(*p)]
    boost = sum(_reduce_boosts(table, *_strata(data, pairs, cfg.d)).tolist())
    return score + cfg.psi2 * boost


@dataclass
class ParentSetScoreTable:
    """Per-(node, parent set) scores plus a graph-independent constant.

    For any graph in the in-degree class the table covers,
    sum_i family_score(i, parents(i)) + constant reproduces total_score.
    """

    n: int
    scores: dict[int, dict[frozenset, float]]
    constant: float = 0.0
    variable_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.variable_names:
            self.variable_names = tuple(f"X{i}" for i in range(self.n))

    def family_score(self, i: int, parents) -> float:
        key = frozenset(parents)
        try:
            return self.scores[i][key]
        except KeyError:
            raise ValueError(
                f"no score for node {i} with parents {sorted(key)}"
            ) from None

    def has_family(self, i: int, parents) -> bool:
        return frozenset(parents) in self.scores.get(i, {})

    def dag_score(self, dag: Dag) -> float:
        return (
            sum(self.family_score(i, dag.parents(i)) for i in range(dag.n))
            + self.constant
        )

    def max_parent_size(self) -> int:
        return max(
            (len(pa) for fams in self.scores.values() for pa in fams), default=0
        )


def build_parent_set_scores(
    data: BinaryDataset, table: BetaTable | None, cfg: ScoreConfig
) -> ParentSetScoreTable:
    """Fold the boosted score into per-family terms.

    Each pair's boost is charged to whichever family contains the adjacency
    (the child's), and the constant carries the boost sum of the fully
    nonadjacent baseline, so adjacency exactly cancels its pair's reward.
    """
    n = data.n_vars
    log_n = math.log(data.n_rows)
    if cfg.psi2 > 0.0:
        if table is None:
            raise ValueError("a beta table is required when psi2 > 0")
        boosts = pair_boosts(data, table, cfg)
    else:
        boosts = {pair: 0.0 for pair in combinations(range(n), 2)}

    def boost_of(i, j):
        return boosts[(i, j) if i < j else (j, i)]

    scores: dict[int, dict[frozenset, float]] = {}
    for i in range(n):
        others = [v for v in range(n) if v != i]
        fam: dict[frozenset, float] = {}
        for k in range(min(cfg.d, len(others)) + 1):
            for pa in combinations(others, k):
                value = (
                    _family_ll(data, i, pa)
                    - cfg.kappa * log_n * 2 ** k
                    - cfg.psi2 * sum(boost_of(i, j) for j in pa)
                )
                fam[frozenset(pa)] = value
        scores[i] = fam
    constant = cfg.psi2 * sum(boosts.values())
    return ParentSetScoreTable(
        n=n, scores=scores, constant=constant,
        variable_names=data.variable_names,
    )


# ---------------------------------------------------------------------------
# true conditional dependence of a generating network
# ---------------------------------------------------------------------------

def _joint_probabilities(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """All 2^n states as 0/1 rows (state k holds X_i in bit i of k) and
    their exact probabilities."""
    n = net.n
    codes = np.arange(2 ** n, dtype=np.int64)
    states = np.empty((2 ** n, n), dtype=np.uint8)
    for i in range(n):
        states[:, i] = (codes >> i) & 1
    probs = np.ones(2 ** n)
    for i in range(n):
        act = np.full(2 ** n, net.bias[i])
        for p, w in net.theta[i].items():
            act += w * states[:, p]
        p1 = 1.0 / (1.0 + np.exp(-act))
        probs *= np.where(states[:, i] == 1, p1, 1.0 - p1)
    return states, probs


def edge_strength(net: Network, a: int, b: int, d: int) -> float:
    """Weakest certificate of dependence between a and b in the true joint.

    min over conditioning sets S (|S| <= d) of the max over assignments s
    with positive probability of MI(a, b | s). Zero means some small S
    renders the pair conditionally independent. Exact state enumeration,
    so the network must have at most 20 nodes.
    """
    n = net.n
    if n > 20:
        raise ValueError(f"n={n} too large for exact enumeration (max 20)")
    if a == b or not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"bad pair ({a}, {b})")
    states, probs = _joint_probabilities(net)
    others = [v for v in range(n) if v != a and v != b]

    best = math.inf
    for k in range(min(d, len(others)) + 1):
        for sep in combinations(others, k):
            mass = _contingency(states, (b, a, *sep), weights=probs).reshape(-1, 4)
            worst = 0.0
            for cell in mass:
                total = cell.sum()
                if total <= 0.0:
                    continue
                q = cell / total
                worst = max(worst, mutual_information(JointDist2x2(*q)))
            best = min(best, worst)
            if best == 0.0:
                return 0.0
    return best


# ---------------------------------------------------------------------------
# parent-set score file: "n <count> constant <value>" header, then one line
# "<node> <k> <p1> ... <pk> <score>" per family
# ---------------------------------------------------------------------------

def save_scores(table: ParentSetScoreTable, path) -> None:
    lines = [f"n {table.n} constant {format(table.constant, '.17g')}"]
    for i in sorted(table.scores):
        for pa in sorted(table.scores[i], key=lambda s: (len(s), sorted(s))):
            parts = [str(i), str(len(pa)), *map(str, sorted(pa)),
                     format(table.scores[i][pa], ".17g")]
            lines.append(" ".join(parts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _numbers(ln: str, toks: list[str]) -> tuple[list[int], float]:
    """All but the last token as integers, the last as a finite float."""
    try:
        ints, last = [int(t) for t in toks[:-1]], float(toks[-1])
        if math.isfinite(last):
            return ints, last
    except ValueError:
        pass
    raise ValueError(f"non-integer or non-finite number in scores line: {ln!r}")


def load_scores(path) -> ParentSetScoreTable:
    """Read a save_scores file; a malformed line raises ValueError quoting it."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"scores file {path} is empty")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "n" or head[2] != "constant":
        raise ValueError(f"bad scores header: {lines[0]!r}")
    (n,), constant = _numbers(lines[0], head[1::2])
    if n < 1:
        raise ValueError(f"node count below 1 in scores header: {lines[0]!r}")
    scores: dict[int, dict[frozenset, float]] = {i: {} for i in range(n)}
    for ln in lines[1:]:
        ints, score = _numbers(ln, ln.split())
        if len(ints) < 2 or len(ints) != ints[1] + 2:
            raise ValueError(f"bad scores line: {ln!r}")
        node, parents = ints[0], frozenset(ints[2:])
        if not all(0 <= v < n for v in (node, *parents)):
            raise ValueError(f"index outside 0..{n - 1} in scores line: {ln!r}")
        if node in parents or len(parents) != ints[1]:
            raise ValueError(f"node or parent repeated in scores line: {ln!r}")
        if parents in scores[node]:
            raise ValueError(f"family listed twice in scores line: {ln!r}")
        scores[node][parents] = score
    return ParentSetScoreTable(n=n, scores=scores, constant=constant)
