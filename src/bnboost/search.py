"""Maximization of a decomposed structure score over DAGs.

exact_dp drops every family that a subset of its parents scores at least
as high as: ranked best first, such a family follows a kept proper subset.
It splits the nodes into the connected components the kept families leave
and runs the subset dynamic program (the best sink of each node subset
takes its best-ranked family inside the rest) on each component on its
own; it is exact while the largest component has at most 24 nodes.
greedy_hill_climb handles larger problems with restarts. Both read each
node's families keyed by parent bit mask (bit p set for parent p); the
table's frozensets are the interface, not the working form.
brute_force enumerates every labeled DAG and is the oracle for tiny n.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .data import Dag, check_count
from .scoring import ParentSetScoreTable

__all__ = ["SearchResult", "exact_dp", "greedy_hill_climb", "brute_force", "all_dags"]

DP_MAX_N = 24
BRUTE_MAX_N = 5
NEG_INF = float("-inf")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SearchResult:
    dag: Dag
    score: float
    method: str
    runtime_ms: float


def _dp_bytes(n: int, f: int) -> int:
    """Memory the subset DP holds on n nodes that keep at most f families
    each: 17 bytes per subset (best, masks, popcounts) plus one sink's
    scan of the largest layer, whose comb(n - 1, (n - 1) // 2) subsets take
    8 bytes per ranked family (the int64 fit test) and about 72 for the
    layer, index and score arrays; 2-7% above the traced peak at 18-22 nodes."""
    return (17 << n) + (8 * f + 72) * math.comb(n - 1, (n - 1) // 2)


def _kept_families(fams: dict) -> dict:
    """The families of one node that score strictly above each proper
    subset the table has, so a tie keeps the smaller family. Ranked best
    first, a tie to fewer parents, a family is kept unless a kept one is a
    proper subset of it: a subset scoring at least as high ranks earlier,
    and the earliest-ranked proper subset is then itself kept."""
    kept: dict[frozenset, float] = {}
    for pa in sorted(sorted(fams, key=len), key=fams.__getitem__, reverse=True):
        if not any(q < pa for q in kept):
            kept[pa] = fams[pa]
    return kept


def _by_mask(fams: dict, pos) -> dict[int, float]:
    """One node's families keyed by parent bit mask, parent p at bit pos[p]."""
    return {sum(1 << pos[p] for p in pa): s for pa, s in fams.items()}


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _components(n: int, kept: list[dict]) -> list[list[int]]:
    """Connected components of the graph that links each node to the
    parents of its kept families, each as an ascending node list."""
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for i, fams in enumerate(kept):
        for pa in fams:
            for p in pa:
                root[find(p)] = find(i)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def exact_dp(table: ParentSetScoreTable) -> SearchResult:
    """Global maximizer of the decomposed score over all DAGs the table covers.

    A family is dropped when a proper subset of its parents scores at least
    as high: no optimum needs it (de Campos & Ji, JMLR 2011). Ranked best
    first, a tie to fewer parents, such a family follows a kept proper
    subset (the earliest-ranked one is kept), so only kept families are
    checked. The kept families link each node to its candidate parents, and
    the subset DP runs on each connected component of that graph on its
    own; a node left alone takes the empty family. The cap DP_MAX_N and the
    memory statement apply to the largest component, not to n: at k nodes
    the DP holds 17 bytes per subset plus one layer's scan, which grows with
    the most families a node keeps (traced, 31 MiB at k = 20 and 119 MiB at
    k = 22 with 12 families per node). Above the cap, or when memory runs
    out inside the DP, the error gives that total. Ties resolve inside each
    component: to the lowest-index sink of each node subset, then to the
    parent set with the fewest parents, then the smallest sorted list.
    """
    t0 = time.perf_counter()
    n = table.n
    kept = [_kept_families(table.scores.get(i, {})) for i in range(n)]
    comps = _components(n, kept)
    big = max(comps, key=len)
    largest = len(big)
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "exact_dp: %d of %d families kept, %d components, the largest of %d nodes",
            sum(map(len, kept)), sum(map(len, table.scores.values())),
            len(comps), largest,
        )
    if largest > DP_MAX_N:
        need = _dp_bytes(largest, max(len(kept[i]) for i in big)) / 1e9
        raise ValueError(
            f"n={largest} above the exact search cap {DP_MAX_N} in the largest "
            f"component: it needs about {need:.2g} GB"
        )
    edges = set()
    for comp in comps:
        local = {v: k for k, v in enumerate(comp)}
        masks = _subset_dp([_by_mask(kept[i], local) for i in comp])
        edges.update((comp[p], i) for i, pa in zip(comp, masks) for p in _bits(pa))
    dag = Dag(n, frozenset(edges))
    return SearchResult(
        dag=dag, score=table.dag_score(dag), method="dp",
        runtime_ms=(time.perf_counter() - t0) * 1e3,
    )


def _subset_dp(fams: list[dict]) -> list[int]:
    """Parent masks of the subset DP's optimum over every node's families
    keyed by parent mask, with exact_dp's tie-breaks; the caller checks the
    size cap. Each node's families are ranked best first (a tie to fewer
    parents, then the smaller sorted list), so its best family inside a set
    is the first ranked one whose mask fits it."""
    n = len(fams)
    size = 1 << n
    ranked = [sorted(f, key=lambda m: (-f[m], m.bit_count(), _bits(m))) for f in fams]
    # m & ~rest is 0 just when m fits, so argmin finds the first ranked mask
    # that fits; a trailing mask 0 scored -inf fits every set
    rank_m = [np.array([*r, 0], dtype=np.int64) for r in ranked]
    rank_s = [np.array([*map(f.get, r), NEG_INF]) for f, r in zip(fams, ranked)]
    try:
        # best[U] over orderings of U, the max over its sinks i of best[U \ i]
        # plus i's best family inside U \ i; processed layer by layer in
        # subset size so every best[U \ i] is final
        best = np.full(size, NEG_INF)
        masks = np.arange(size, dtype=np.int64)
        pop = np.bitwise_count(masks)
        best[0] = 0.0
        for k in range(1, n + 1):
            layer = masks[pop == k]
            for i in range(n):
                bit = 1 << i
                sel = layer[(layer & bit) != 0]
                rest = sel ^ bit
                first = np.argmin(~rest[:, None] & rank_m[i], axis=1)
                best[sel] = np.maximum(best[sel], best[rest] + rank_s[i][first])
    except MemoryError as exc:
        need = _dp_bytes(n, max(map(len, fams))) / 1e9
        raise MemoryError(f"exact_dp at n={n} needs about {need:.2g} GB") from exc

    if not math.isfinite(best[size - 1]):
        raise ValueError("the score table covers no complete DAG")

    # reconstruct: peel sinks, each the lowest-index node of u whose first
    # fitting family inside the rest attains best[u], by the same float sum
    parents = [0] * n
    u = size - 1
    while u:
        for i in _bits(u):
            rest = u ^ 1 << i
            m = next((m for m in ranked[i] if not m & ~rest), None)
            if m is not None and best[rest] + fams[i][m] == best[u]:
                break
        parents[i], u = m, rest
    return parents


# ---------------------------------------------------------------------------
# greedy hill climbing
# ---------------------------------------------------------------------------

def _above(parents: list[int]) -> list[int]:
    """Bit mask of the ancestors of each node's parents, so the ancestors of
    v are parents[v] | above[v]: a fixpoint over the parent masks."""
    above = [0] * len(parents)
    changed = True
    while changed:
        changed = False
        for v, pa in enumerate(parents):
            mask = 0
            for p in _bits(pa):
                mask |= parents[p] | above[p]
            if mask != above[v]:
                above[v], changed = mask, True
    return above


def _climb(fams: list[dict], parents: list[int]) -> tuple[list[int], float]:
    """Best-improving single-edge moves until a local maximum; returns the
    parent masks and the sum of their family scores. gain[v][u] is the score
    change from toggling u in v's parent mask (-inf where the table lacks the
    family); a move, {node: new parent mask}, rebuilds only its nodes' rows.
    Adding u -> v closes a cycle iff v is an ancestor of u; reversing u -> v
    does iff u is an ancestor of a parent of v."""
    n = len(fams)
    cur = [f.get(pa) for f, pa in zip(fams, parents)]
    if None in cur:
        raise ValueError("start graph contains a family missing from the table")

    def row(v: int) -> list[float]:
        return [fams[v].get(parents[v] ^ 1 << u, NEG_INF) - cur[v] for u in range(n)]

    gain = [row(v) for v in range(n)]
    while True:
        above = _above(parents)
        best_delta, best_move = 1e-12, None
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                delta = gain[v][u]
                if parents[v] >> u & 1:  # deletion, then reversal, of u -> v
                    if delta > best_delta:
                        best_delta, best_move = delta, {v: parents[v] ^ 1 << u}
                    if not above[v] >> u & 1 and delta + gain[u][v] > best_delta:
                        best_delta = delta + gain[u][v]
                        best_move = {v: parents[v] ^ 1 << u, u: parents[u] | 1 << v}
                elif not (parents[u] | above[u]) >> v & 1 and delta > best_delta:
                    best_delta, best_move = delta, {v: parents[v] | 1 << u}  # addition
        if best_move is None:
            return parents, sum(cur)
        for w, pa in best_move.items():
            parents[w], cur[w] = pa, fams[w][pa]
            gain[w] = row(w)


def _random_start(fams: list[dict], d: int, rng) -> list[int]:
    """Parent masks of a random DAG built along a random order, with at most
    d parents per node, using only families the table has."""
    n = len(fams)
    order = rng.permutation(n)
    parents = [0] * n
    for pos in range(n):
        child = int(order[pos])
        k = int(rng.integers(0, min(d, pos) + 1))
        if k:
            pa = sum(1 << int(x) for x in rng.choice(order[:pos], size=k, replace=False))
            if pa in fams[child]:
                parents[child] = pa
    return parents


def greedy_hill_climb(
    table: ParentSetScoreTable, restarts: int = 10, seed: int = 0
) -> SearchResult:
    """Best local maximum over restarts; the first climb starts from the
    empty graph, later ones from random DAGs. Deterministic given seed."""
    check_count("restarts", restarts, 1)
    check_count("seed", seed, 0)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    n = table.n
    fams = [_by_mask(table.scores.get(i, {}), range(n)) for i in range(n)]
    d = table.max_parent_size()
    best_parents = None
    best_score = NEG_INF
    for r in range(restarts):
        start = [0] * n if r == 0 else _random_start(fams, d, rng)
        try:
            parents, score = _climb(fams, start)
        except ValueError:
            continue
        if score + table.constant > best_score:
            best_score, best_parents = score + table.constant, parents
    if best_parents is None:
        raise ValueError("no valid start: the table lacks the empty families")
    dag = Dag(n, frozenset((u, v) for v in range(n) for u in _bits(best_parents[v])))
    return SearchResult(
        dag=dag, score=best_score, method="greedy",
        runtime_ms=(time.perf_counter() - t0) * 1e3,
    )


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def all_dags(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every labeled DAG on n nodes as a sorted edge tuple (cached)."""
    if n > BRUTE_MAX_N:
        raise ValueError(f"n={n} above the enumeration cap {BRUTE_MAX_N}")
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    out = []
    for bits in product((0, 1), repeat=len(pairs)):
        edges = tuple(p for p, b in zip(pairs, bits) if b)
        parents: list[set] = [set() for _ in range(n)]
        for u, v in edges:
            parents[v].add(u)
        # Kahn check
        indeg = [len(p) for p in parents]
        ready = [i for i in range(n) if indeg[i] == 0]
        seen = 0
        while ready:
            i = ready.pop()
            seen += 1
            for v in range(n):
                if i in parents[v]:
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        ready.append(v)
        if seen == n:
            out.append(tuple(sorted(edges)))
    return tuple(out)


def brute_force(table: ParentSetScoreTable) -> SearchResult:
    """Exact maximizer by scoring every labeled DAG; ties go to the
    lexicographically smallest edge set."""
    n = table.n
    if n > BRUTE_MAX_N:
        raise ValueError(f"n={n} above the enumeration cap {BRUTE_MAX_N}")
    t0 = time.perf_counter()
    best_score = NEG_INF
    best_edges = None
    for edges in all_dags(n):
        parents: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            parents[v].append(u)
        score = 0.0
        ok = True
        for i in range(n):
            if not table.has_family(i, parents[i]):
                ok = False
                break
            score += table.family_score(i, parents[i])
        if not ok:
            continue
        if score > best_score or (
            score == best_score and (best_edges is None or edges < best_edges)
        ):
            best_score = score
            best_edges = edges
    if best_edges is None:
        raise ValueError("the score table covers no complete DAG")
    dag = Dag(n, frozenset(best_edges))
    return SearchResult(
        dag=dag, score=best_score + table.constant, method="brute",
        runtime_ms=(time.perf_counter() - t0) * 1e3,
    )
