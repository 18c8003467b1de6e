"""Structure scores: BIC and its independence-boosted extension.

The boosted score is BIC plus, for every nonadjacent pair (A, B), a
nonnegative reward max over separating sets S of the min over observed
assignments s of -ln(beta) at the conditional empirical MI. Confident
conditional independence earns a reward that grows with the sample count;
dependent pairs earn nothing once the empirical MI clears eta.

With bounded-size separating sets the per-pair reward does not depend on
the candidate graph, so the whole score decomposes into per-family terms
(ParentSetScoreTable) that combinatorial search can consume directly.

A build counts from one count context (_CountContext): the dataset's
distinct rows, read once, and the superset sums of their histogram,
formed at most once; the boosts and the family terms share it, and it
goes when the build returns. The strata stream by separating set: chunks
of at most _STRATA_BUDGET strata (2x2 tables) pass through the counting
kernel, one MI call and one batched -ln(beta) query, then reduce into
each pair's running max over sets of its min over assignments, so memory
does not grow with the number of pairs. A query reads the beta table's
interpolant for strata of at most 200 rows (beta.EXACT_CAP) and the
closed form, corrected by the table's residual, above that. Families,
strata and edge_strengths take their column sets from one enumerator
(_column_sets).

Every contingency table of the data comes from one counting kernel
(_CountContext.count) over the dataset's distinct rows, each weighted by
its int64 multiplicity, by one of three routes chosen from the sizes of
the whole call (for streamed strata, of all the chunks of one set size).
When M column sets times U distinct rows reach twice n * 2^n (a measured
crossover; with 2000 rows, families of two parents pass it up to n = 16),
every table is read off one 2^n histogram of the rows: n superset-sum
passes over it, then k passes of Moebius inversion per table. Below
that, large calls take Gram products (BLAS matrix products) and the rest
one bincount. The Gram route groups the column sets by all but their
first two columns and reads each group off an all-ones lattice: for each
set T of the group's columns, the Gram of the rows where all of T is 1,
then Moebius inversion over T (after the ADtree's elision of one value,
Moore & Lee, JAIR 1998); the Grams of the empty set and of single
columns serve the whole call. A count, and every partial sum or
difference the transform or the lattice forms, is an integer below 2^53,
which float64 holds exactly in any order of operations, so all routes
give bit-equal tables, log-likelihoods, boosts and scores. Above n = 23
(_ZETA_MAX_N) no call takes the transform: its 64 MiB histogram would
double per column and no longer buy time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .beta import EXACT_CAP, BetaTable, neg_ln_beta_batch
from .data import BinaryDataset, Dag, Network, _utf8_error, check_count
from .dist2x2 import mi_from_counts_batch

# Not called here; perfbench/tracing.py wraps both names in this module.
from .beta import query_neg_ln_beta  # noqa: F401
from .dist2x2 import mi_from_counts  # noqa: F401

__all__ = [
    "ScoreConfig",
    "ParentSetScoreTable",
    "dim",
    "check_table",
    "pair_boosts",
    "total_score",
    "build_parent_set_scores",
    "edge_strengths",
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
        for key in ("eta", "kappa", "psi2"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key}={getattr(self, key)!r} must be finite")
        if self.eta <= 0.0:
            raise ValueError(f"eta={self.eta!r} must be > 0")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa={self.kappa!r} must be > 0")
        if self.psi2 < 0.0:
            raise ValueError(f"psi2={self.psi2!r} must be >= 0")
        check_count("d", self.d, 0)


# Row words pack this many columns each; one pass of the counting kernel
# holds about this many index cells, and one of its matrix products at most
# this many multiply-adds.
_WORD_BITS = 62
_CHUNK_CELLS = 1 << 16
_SERIAL_MADDS = 1 << 18
# One chunk of a boost pass holds at most this many strata (2x2 tables).
_STRATA_BUDGET = 1 << 16
# A call takes the superset-sum transform once M column sets times U distinct
# rows reach this many times its n * 2^n additions (measured crossover).
_ZETA_WORK = 2
# ... and never above this n: the transform's 2^n float64 histogram is
# 64 MiB at n = 23 and doubles with each column. On a boosted pair_boosts
# at N = 50 000 it took 0.37-0.38 s against 0.70-0.73 s without at n = 23,
# but at n = 24 it took 0.62-0.78 s against 0.75-0.89 s for a 184 MB peak
# against 61, and at N = 20 000 0.59-0.65 s against 0.36-0.49 s.
_ZETA_MAX_N = 23


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an (N, n) 0/1 matrix as an (n, U) bit matrix,
    and how often each occurs (int64 counts). Rows are packed into
    int64 words one column at a time, so no (N, n) int64 copy is made."""
    n_rows, n = rows.shape
    words = np.zeros((-(-n // _WORD_BITS), n_rows), dtype=np.int64)
    for j in range(n):
        words[j // _WORD_BITS] |= rows[:, j].astype(np.int64) << (j % _WORD_BITS)
    if len(words) == 1:
        words.sort(axis=1)  # one key: a plain sort is a lexsort
    else:
        words = words[:, np.lexsort(words)]
    new_run = (words[:, 1:] != words[:, :-1]).any(axis=0)
    starts = np.flatnonzero(np.concatenate(([True], new_run)))
    firsts = words[:, starts]
    bits = np.empty((n, starts.size), dtype=np.uint8)
    for j in range(n):
        bits[j] = (firsts[j // _WORD_BITS] >> (j % _WORD_BITS)) & 1
    return bits, np.diff(np.append(starts, n_rows))


class _CountContext:
    """The counts of one build: the data's distinct rows as an (n, U) bit
    matrix with their int64 multiplicities, and the superset sums of the
    rows' 2^n histogram, formed on the first count that takes the
    transform. A build makes one and drops it when it returns; nothing is
    kept on the data."""

    def __init__(self, bits: np.ndarray, weights: np.ndarray):
        self.bits, self.weights, self.sums = bits, weights, None

    def count(self, colsets: np.ndarray, work: int | None = None) -> np.ndarray:
        """Joint counts of every column set at once: colsets is (M, k), and
        row m of the (M, 2^k) float64 result counts the columns u of bits,
        each adding weights[u], by the cell index
        sum_j bits[colsets[m, j], u] << j.

        Three routes, chosen from the sizes of the whole call that colsets
        belongs to, work column sets (default M): the superset-sum transform
        (_zeta_count) once the direct routes' work, work column sets times U
        distinct rows, reaches _ZETA_WORK times the transform's n * 2^n;
        otherwise Gram products (_gram_count) once the work outgrows one
        bincount pass and colsets holds at least n * 2^(k-2) / 2 column sets
        per distinct prefix, and _bincount below that. The Gram route forms,
        for each prefix (columns 2..k-1) and each set T of its columns, the
        Gram of the rows where all of T is 1, and Moebius inversion over T
        turns them into the Grams of each prefix assignment; the Grams of
        the empty set and of each single column are formed once per call.
        Every count, and every partial sum or difference the transform or
        the lattice forms, is an integer below 2^53, which float64 holds
        exactly in any order of operations, so all three routes give the
        same counts bit for bit. Above _ZETA_MAX_N columns the transform is
        never taken."""
        bits, weights = self.bits, self.weights
        m_all, k = colsets.shape
        n, u = bits.shape
        work = m_all if work is None else work
        if n <= _ZETA_MAX_N and work * u >= _ZETA_WORK * (n << n):
            if self.sums is None:
                self.sums = _superset_sums(bits, weights)
            return _zeta_count(colsets, self.sums)
        if (k >= 2 and work * u > _CHUNK_CELLS
                and n ** (k - 2) < 1 << 62):  # the prefix keys fit in int64
            order, starts = _by_prefix(colsets, n)
            if 2 * m_all >= len(starts) * n << (k - 2):
                return _gram_count(bits, weights, colsets, order, starts)
        return _bincount(bits, weights, colsets)


def _superset_sums(bits, weights) -> np.ndarray:
    """The superset sums z of the 2^n histogram h of the rows' codes (column
    j is bit j): z[T] = sum of h[S] over S containing T, the rows with every
    column of T at 1. n in-place passes over h."""
    n = bits.shape[0]
    sums = np.bincount(np.left_shift(1, np.arange(n)) @ bits, weights, minlength=1 << n)
    for j in range(n):
        half = sums.reshape(-1, 2, 1 << j)
        half[:, 0] += half[:, 1]
    return sums


def _zeta_count(colsets, sums) -> np.ndarray:
    """_CountContext.count through the superset sums of the rows
    (_superset_sums). A column set's 2^k cells first read the sums at the OR
    of their 1-columns' bits, then k in-place passes of Moebius inversion
    subtract, for each column j, the cells with bit j set from those with it
    clear. One chunk of column sets holds about _CHUNK_CELLS cells."""
    m_all, k = colsets.shape
    out = np.empty((m_all, 1 << k))
    step = max(1, _CHUNK_CELLS >> k)
    for lo in range(0, m_all, step):
        chunk = np.left_shift(1, colsets[lo:lo + step])
        idx = np.zeros((len(chunk), 1), dtype=np.intp)
        for j in range(k):
            idx = np.concatenate((idx, idx | chunk[:, j, None]), axis=1)
        cells = out[lo:lo + len(chunk)]
        np.take(sums, idx, out=cells)
        for j in range(k):
            half = cells.reshape(len(chunk), -1, 2, 1 << j)
            half[:, :, 0] -= half[:, :, 1]
    return out


def _by_prefix(colsets: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """An order of the column sets that groups equal prefixes (columns
    2..k-1, read as one base-n integer), and the position in that order
    where each group starts."""
    key = np.zeros(len(colsets), dtype=np.int64)
    for j in range(2, colsets.shape[1]):
        key = key * n + colsets[:, j]
    order = np.argsort(key, kind="stable")
    return order, np.flatnonzero(np.diff(key[order], prepend=-1))


def _gram_count(bits, weights, colsets, order, starts) -> np.ndarray:
    """_CountContext.count with the column sets grouped as _by_prefix gives
    them, one group at a time, from an all-ones Gram lattice. For a set T of
    columns, G_T is the matrix product of the rows w * bits against bits^T
    over the distinct rows where every column of T is 1, w the weights: its
    entry (i, j) counts those rows with i and j at 1, and entry (c, c) for
    c in T is N_T, their total weight (N_{} is the sum of w). A group forms
    G_T for each T within its prefix (about U / 2^|T| rows each), and k - 2
    passes of Moebius inversion over them, as _zeta_count's, subtract, for
    each prefix column, the Grams with it at 1 from those without, which
    leaves the Gram and N_s of the rows with the prefix at each assignment
    s. Its diagonal gives the margins m0 and m1 of the first two columns,
    and the four cells follow by subtraction: n10 = m0 - n11,
    n01 = m1 - n11, n00 = N_s - m0 - m1 + n11. G_{} and the n single-column
    G_{c} are held for the whole call once formed, at most 1 + n matrices,
    and larger T are formed inside their group. Each product runs over the
    columns of bits where the rows match, in blocks that keep it within
    _SERIAL_MADDS multiply-adds: OpenBLAS runs a product that small on the
    calling thread, and waking its other threads for one can cost
    milliseconds. Beside the held Grams, a group holds its 2^(k-2) Gram
    matrices and the cells of its own column sets."""
    m_all, k = colsets.shape
    n = bits.shape[0]
    b, w = bits.astype(np.float64), weights.astype(np.float64)
    out = np.empty((m_all, 1 << k))
    block = max(1, _SERIAL_MADDS // (n * n))  # columns of bits per product

    def gram(cols):  # G_T for the columns cols of T
        rows = np.flatnonzero(np.logical_and.reduce(bits[list(cols)]))
        g = np.zeros((n, n))
        for first in range(0, len(rows), block):
            part = rows[first:first + block]
            x = b[:, part]
            g += (x * w[part]) @ x.T
        return g

    held = {}  # G_T for |T| <= 1, formed on first use
    total = w.sum()
    # one group's Grams and N_s: G_T and N_T at index t (bit j of t set when
    # T holds prefix column j), then those of the assignment s = t
    grams, n_s = np.empty((1 << (k - 2), n, n)), np.empty(1 << (k - 2))
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), m_all]):
        sets = order[lo:hi]
        prefix = colsets[sets[0], 2:].tolist()
        for t, g in enumerate(grams):
            cols = tuple(c for j, c in enumerate(prefix) if t >> j & 1)
            if len(cols) <= 1 and cols not in held:
                held[cols] = gram(cols)
            g[:] = held[cols] if len(cols) <= 1 else gram(cols)
            n_s[t] = g[cols[0], cols[0]] if cols else total
        for j in range(k - 2):  # Moebius inversion, prefix column by column
            for half in (grams.reshape(-1, 2, 1 << j, n, n), n_s.reshape(-1, 2, 1 << j)):
                half[:, 0] -= half[:, 1]
        margins = grams.diagonal(axis1=1, axis2=2).T  # (n, 2^(k-2))
        i, j = colsets[sets, 0], colsets[sets, 1]
        n11, m0, m1 = grams.transpose(1, 2, 0)[i, j], margins[i], margins[j]
        out[sets] = np.stack(
            (n_s - m0 - m1 + n11, m0 - n11, m1 - n11, n11), axis=-1
        ).reshape(len(sets), -1)
    return out


def _bincount(bits: np.ndarray, weights: np.ndarray, colsets: np.ndarray) -> np.ndarray:
    """_CountContext.count by one bincount per chunk of column sets, which
    adds the weights in column order (edge_strengths passes probabilities)."""
    m_all, k = colsets.shape
    u = bits.shape[1]
    weights = weights.astype(np.float64, copy=False)
    out = np.empty((m_all, 1 << k))
    step = max(1, _CHUNK_CELLS // u)
    for lo in range(0, m_all, step):
        cs = colsets[lo:lo + step]
        idx = np.repeat(np.arange(len(cs), dtype=np.intp) << k, u).reshape(-1, u)
        for j in range(k):
            idx += np.left_shift(bits[cs[:, j]], j, dtype=np.intp)
        out[lo:lo + len(cs)] = np.bincount(
            idx.ravel(), np.tile(weights, len(cs)), minlength=len(cs) << k
        ).reshape(-1, 1 << k)
    return out


def _family_lls(counts: _CountContext, families: np.ndarray) -> np.ndarray:
    """Maximized log-likelihood of each family, a row (child, *parents) of
    families."""
    cells = counts.count(families).reshape(len(families), -1, 2)
    totals = cells.sum(axis=2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(
            cells > 0, cells * np.log(cells / np.maximum(totals, 1)), 0.0
        )
    return terms.reshape(len(families), -1).sum(axis=1)


def dim(dag: Dag) -> int:
    """Free parameters of the binary network: one per parent assignment."""
    return sum(2 ** dag.in_degree(i) for i in range(dag.n))


def _column_sets(n: int, leads: np.ndarray, k: int) -> np.ndarray:
    """Each row of leads (L, m) followed by every k-subset (k <= n - m) of
    the other columns 0..n-1, in combinations order: an (L * C(n - m, k),
    m + k) array holding all of one lead's sets together."""
    n_leads, m = leads.shape
    own = np.zeros((n_leads, n), dtype=bool)
    own[np.arange(n_leads)[:, None], leads] = True
    others = np.nonzero(~own)[1].reshape(n_leads, n - m)
    subsets = np.array(list(combinations(range(n - m), k)), dtype=np.intp)
    sets = np.empty((n_leads, len(subsets), m + k), dtype=np.intp)
    sets[:, :, :m] = leads[:, None]
    sets[:, :, m:] = others[:, subsets]
    return sets.reshape(n_leads * len(subsets), m + k)


def _strata_chunks(n: int, k_max: int):
    """The column sets (b, a, *S) of the strata of every pair a < b and
    separating set S of the other columns, |S| <= k_max, S by S: sizes in
    order, each in combinations order. Yields them in chunks of (k, column
    sets) parts; a chunk takes as many S as keep its strata (2^|S| per
    column set) within _STRATA_BUDGET, and at least one."""
    parts, held = [], 0
    for k in range(k_max + 1):
        seps = _column_sets(n, np.zeros((1, 0), dtype=np.intp), k)
        per_set = math.comb(n - k, 2) << k
        lo = 0
        while lo < len(seps):
            if parts and held + per_set > _STRATA_BUDGET:
                yield parts
                parts, held = [], 0
            hi = min(len(seps), lo + max(1, (_STRATA_BUDGET - held) // per_set))
            # (S, a, b) as (b, a, S): b is bit 0 of a cell, a bit 1, S above
            parts.append((k, _column_sets(n, seps[lo:hi], 2)[:, [k + 1, k, *range(k)]]))
            held += (hi - lo) * per_set
            lo = hi
    yield parts


def _log_strata(n_pairs: int, tally) -> None:
    sets, tables, queries, answered, far, above, below, unseen = tally.tolist()
    log.debug(
        "pair_boosts: %d pairs, %d separating sets, %d tables, %d queries "
        "(%d below eta: %d above the exact rows, %d above and %d below the N "
        "grid), %d unseen assignments",
        n_pairs, sets, tables, queries, answered, far, above, below, unseen,
    )


def _boosts(table: BetaTable, counts: _CountContext, d: int) -> np.ndarray:
    """Boost of every pair a < b, in combinations order: the max over
    separating sets S (|S| <= d) of the other variables of the min over
    assignments s of -ln(beta) at (N_s, MI of a and b given S = s), an
    assignment never seen giving 0.

    The strata stream through count, MI, query and reduce one chunk of
    separating sets at a time (_strata_chunks), so memory does not grow
    with the number of pairs. In a chunk, each set size's column sets
    (b, a, *S) take one kernel call, routed by the work of that size over
    every chunk; one MI call and one query cover the chunk's strata, and
    each pair keeps a running max of its min over assignments."""
    n = counts.bits.shape[0]
    n_pairs = math.comb(n, 2)
    if not n_pairs:
        return np.zeros(0)
    pair_of = np.zeros((n, n), dtype=np.intp)  # pair_of[a, b]: the index of (a, b)
    pair_of[np.triu_indices(n, 1)] = np.arange(n_pairs)
    boosts = np.full(n_pairs, -np.inf)
    tally = np.zeros(8, dtype=np.int64) if log.isEnabledFor(logging.DEBUG) else None
    for parts in _strata_chunks(n, min(d, n - 2)):
        cells = np.concatenate([
            counts.count(sets, n_pairs * math.comb(n - 2, k)).reshape(-1, 4)
            for k, sets in parts
        ]).astype(np.int64).T
        n_s = cells.sum(axis=0)
        mi = mi_from_counts_batch(*cells)  # 0 where N_s = 0
        seen = n_s > 0
        if tally is not None:
            answered = n_s[seen & (mi < table.eta)]  # the rest read 0
            interpolated = answered[answered <= EXACT_CAP]  # the rest above EXACT_CAP
            tally += [sum(len(sets) for _, sets in parts), n_s.size, seen.sum(),
                      answered.size, answered.size - interpolated.size,
                      (interpolated > table.N_grid[-1]).sum(),
                      (interpolated < table.N_grid[0]).sum(), (~seen).sum()]
        values = np.zeros(n_s.shape)
        values[seen] = neg_ln_beta_batch(table, n_s[seen], mi[seen])
        lo = 0
        for k, sets in parts:
            hi = lo + (len(sets) << k)
            np.maximum.at(boosts, pair_of[sets[:, 1], sets[:, 0]],
                          values[lo:hi].reshape(-1, 1 << k).min(axis=1))
            lo = hi
    if tally is not None:
        _log_strata(n_pairs, tally)
    return boosts


def check_table(table: BetaTable | None, cfg: ScoreConfig) -> None:
    """The score's rule for its beta table: a boosted score (psi2 > 0) needs
    one, and a table given must be built for the score's eta, to 1e-12, as
    its -ln(beta) values test MI against the reference distribution at eta.
    Raises ValueError otherwise."""
    if table is None:
        if cfg.psi2 > 0.0:
            raise ValueError("a beta table is required when psi2 > 0")
    elif abs(table.eta - cfg.eta) > 1e-12:
        raise ValueError(f"beta table eta {table.eta!r} != score eta {cfg.eta!r}")


def pair_boosts(
    data: BinaryDataset,
    table: BetaTable,
    cfg: ScoreConfig,
    *,
    _counts: _CountContext | None = None,
) -> dict:
    """Boost of every unordered pair (a, b): the max over separating sets S
    of the min over assignments s of -ln(beta) at (N_s, MI of a and b given
    S = s), an assignment never seen giving 0. It does not depend on the
    graph. build_parent_set_scores passes _counts, its count context of the
    same data, so that a build reads the rows once; it does not change the
    result."""
    if table is None:  # whatever cfg.psi2, as the boosts are -ln(beta) values
        raise ValueError("pair_boosts needs a beta table")
    check_table(table, cfg)
    if _counts is None:
        _counts = _CountContext(*_distinct_rows(data.rows))
    return dict(zip(combinations(range(data.n_vars), 2),
                    _boosts(table, _counts, cfg.d).tolist()))


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
    if dag.n != data.n_vars:
        raise ValueError("dag and dataset disagree on the variable count")
    counts = _CountContext(*_distinct_rows(data.rows))
    lls = np.zeros(dag.n)  # one kernel call per in-degree
    for k in {dag.in_degree(i) for i in range(dag.n)}:
        nodes = [i for i in range(dag.n) if dag.in_degree(i) == k]
        families = np.array([(i, *dag.parents(i)) for i in nodes], dtype=np.intp)
        lls[nodes] = _family_lls(counts, families)
    score = sum(lls.tolist()) - cfg.kappa * math.log(data.n_rows) * dim(dag)
    if cfg.psi2 == 0.0:
        return score
    check_table(table, cfg)
    boosts = zip(combinations(range(dag.n), 2), _boosts(table, counts, cfg.d).tolist())
    return score + cfg.psi2 * sum(v for p, v in boosts if not dag.adjacent(*p))


@dataclass
class ParentSetScoreTable:
    """Per-(node, parent set) scores plus a graph-independent constant.

    For any graph in the in-degree class the table covers,
    sum_i family_score(i, parents(i)) + constant reproduces total_score.
    Every family is one some DAG on the n nodes can use: its node is in
    0..n-1, its parents are other nodes of 0..n-1, and its score is finite;
    the constructor refuses any other family and a constant that is not
    finite, and gives absent nodes no families.
    """

    n: int
    scores: dict[int, dict[frozenset, float]]
    constant: float = 0.0

    def __post_init__(self):
        check_count("n", self.n, 1)
        if not math.isfinite(self.constant):
            raise ValueError(f"score table constant {self.constant!r}, not finite")
        nodes = set(range(self.n))
        for i, fams in self.scores.items():
            if i not in nodes:
                raise ValueError(f"score table node {i!r} outside 0..{self.n - 1}")
            others = nodes - {i}
            if not all(map(others.issuperset, fams)):
                pa = next(pa for pa in fams if not others.issuperset(pa))
                raise ValueError(
                    f"node {i}: parents {sorted(pa)} are not other nodes of 0..{self.n - 1}"
                )
            if not all(map(math.isfinite, fams.values())):
                pa = next(pa for pa, s in fams.items() if not math.isfinite(s))
                raise ValueError(f"node {i}: parents {sorted(pa)} score {fams[pa]!r}, not finite")
        self.scores = {i: self.scores.get(i, {}) for i in range(self.n)}

    def family_score(self, i: int, parents) -> float:
        key = frozenset(parents)
        try:
            return self.scores[i][key]
        except KeyError:
            raise ValueError(
                f"no score for node {i} with parents {sorted(key)}"
            ) from None

    def dag_score(self, dag: Dag) -> float:
        if dag.n != self.n:
            raise ValueError(f"dag has {dag.n} nodes and the score table has {self.n}")
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
    boost = np.zeros((n, n))  # boost[i, j]: the boost of the pair {i, j}
    constant = 0.0
    counts = _CountContext(*_distinct_rows(data.rows))
    if cfg.psi2 > 0.0:
        boosts = pair_boosts(data, table, cfg, _counts=counts)
        if boosts:
            a, b = np.array(list(boosts)).T
            boost[a, b] = boost[b, a] = list(boosts.values())
        constant = cfg.psi2 * sum(boosts.values())

    scores: dict[int, dict[frozenset, float]] = {i: {} for i in range(n)}
    for k in range(min(cfg.d, n - 1) + 1):
        fam = _column_sets(n, np.arange(n)[:, None], k)
        boost_sum = np.zeros(len(fam))
        for j in range(1, k + 1):  # parent by parent, as a running sum
            boost_sum = boost_sum + boost[fam[:, 0], fam[:, j]]
        penalized = (
            _family_lls(counts, fam) - cfg.kappa * log_n * 2 ** k
            - cfg.psi2 * boost_sum
        )
        # _column_sets lists each child's comb(n - 1, k) families in a row
        keys, values = list(map(frozenset, fam[:, 1:].tolist())), penalized.tolist()
        per = math.comb(n - 1, k)
        for i, lo in enumerate(range(0, len(keys), per)):
            scores[i].update(zip(keys[lo:lo + per], values[lo:lo + per]))
    return ParentSetScoreTable(n=n, scores=scores, constant=constant)


# ---------------------------------------------------------------------------
# true conditional dependence of a generating network
# ---------------------------------------------------------------------------

def _joint_probabilities(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """All 2^n states as an (n, 2^n) bit matrix (state k holds X_i in bit i
    of k, and row i holds X_i of every state) and their exact probabilities."""
    n = net.n
    codes = np.arange(2 ** n, dtype=np.int64)
    states = np.empty((n, 2 ** n), dtype=np.uint8)
    for i in range(n):
        states[i] = (codes >> i) & 1
    probs = np.ones(2 ** n)
    for i in range(n):
        p1 = net.p_one(i, states)
        probs *= np.where(states[i] == 1, p1, 1.0 - p1)
    return states, probs


def edge_strengths(net: Network, pairs, d: int) -> list[float]:
    """Weakest certificate of dependence between a and b in the true joint,
    for each (a, b) of the iterable pairs, in order: the min over
    conditioning sets S (|S| <= d) of the max over assignments s of
    MI(a, b | s), an assignment of probability 0 giving 0. Zero means some
    small S renders the pair conditionally independent. One exact state
    enumeration serves every pair, so the network must have at most 20 nodes."""
    n = net.n
    if n > 20:
        raise ValueError(f"n={n} too large for exact enumeration (max 20)")
    check_count("d", d, 0)
    pairs = list(pairs)  # read twice: checks, then column sets
    for a, b in pairs:
        check_count("a", a, 0)
        check_count("b", b, 0)
        if a == b or a >= n or b >= n:
            raise ValueError(f"bad pair ({a}, {b})")
    states, probs = _joint_probabilities(net)
    leads = np.array([(b, a) for a, b in pairs], dtype=np.intp).reshape(-1, 2)
    best = np.full(len(leads), np.inf)
    for k in range(min(d, n - 2) + 1):
        # one count per set size; MI does not change with scale, so raw masses serve
        mass = _bincount(states, probs, _column_sets(n, leads, k)).reshape(-1, 4)
        mi = mi_from_counts_batch(*mass.T).reshape(len(leads), math.comb(n - 2, k), 1 << k)
        best = np.minimum(best, mi.max(axis=2).min(axis=1))
        if not best.any():  # every pair reads 0, and no later set can go lower
            break
    return best.tolist()


# ---------------------------------------------------------------------------
# parent-set score file: "n <count> constant <value>" header, then one line
# "<node> <k> <p1> ... <pk> <score>" per family
# ---------------------------------------------------------------------------

def save_scores(table: ParentSetScoreTable, path) -> None:
    """Write the score file load_scores reads: scores as .17g, families by
    node, then size, then sorted parents, each line ended by \n."""
    # one printf format per family size; %.17g prints what format(x, ".17g") does
    formats = [f"%d %d{' %d' * k} %.17g\n" for k in range(table.max_parent_size() + 1)]
    lines = [f"n {table.n} constant {table.constant:.17g}\n"]
    for i in sorted(table.scores):
        keyed = sorted((len(pa), sorted(pa), score)
                       for pa, score in table.scores[i].items())
        lines += [formats[k] % (i, k, *parents, score) for k, parents, score in keyed]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(lines))


def load_scores(path) -> ParentSetScoreTable:
    """Read a save_scores file; a malformed line raises ValueError quoting
    it. Checks run line by line in this order: numbers, shape, index
    range, repeats, family listed twice. A UTF-8 BOM is ignored; a byte
    that is not UTF-8 raises ValueError naming the file and its line."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = [ln for ln in map(str.strip, fh) if ln]
    except UnicodeDecodeError:
        raise _utf8_error(path) from None
    if not lines:
        raise ValueError(f"scores file {path} is empty")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "n" or head[2] != "constant":
        raise ValueError(f"bad scores header: {lines[0]!r}")
    try:
        n, constant = int(head[1]), float(head[3])
    except ValueError:
        constant = math.nan
    if not math.isfinite(constant):
        raise ValueError(f"non-integer or non-finite number in scores line: {lines[0]!r}")
    if n < 1:
        raise ValueError(f"node count below 1 in scores header: {lines[0]!r}")
    scores: dict[int, dict[frozenset, float]] = {}
    for ln in lines[1:]:
        toks = ln.split()
        try:
            ints, score = list(map(int, toks[:-1])), float(toks[-1])
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise ValueError(f"non-integer or non-finite number in scores line: {ln!r}")
        if len(ints) < 2 or len(ints) != ints[1] + 2:
            raise ValueError(f"bad scores line: {ln!r}")
        node, pa = ints[0], ints[2:]
        if not 0 <= node < n or pa and not (min(pa) >= 0 and max(pa) < n):
            raise ValueError(f"index outside 0..{n - 1} in scores line: {ln!r}")
        parents = frozenset(pa)
        if node in parents or len(parents) != ints[1]:
            raise ValueError(f"node or parent repeated in scores line: {ln!r}")
        family = scores.setdefault(node, {})
        if parents in family:
            raise ValueError(f"family listed twice in scores line: {ln!r}")
        family[parents] = score
    # every node of a DAG needs a family, so a larger n covers no DAG, and
    # the table below stays as large as the file
    if n > len(lines) - 1:
        raise ValueError(
            f"node count above the {len(lines) - 1} family lines in scores header: "
            f"{lines[0]!r}"
        )
    return ParentSetScoreTable(n=n, scores=scores, constant=constant)
