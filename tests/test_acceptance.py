"""Acceptance gate: ten end-to-end checks, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. Two
checks test the paper's asymptotic claims only where the paper makes them:

- 3: `-ln(beta)` grows linearly in N at the Sanov rate. Below N ~ 200 at
  eta = 0.01 the test statistic 2N*MI is still in its noncentral chi^2_1
  regime, and the exact curve dips before it rises. The check therefore
  runs on N in {200..500}: R^2 >= 0.98, every secant slope at or above the
  Sanov rate, and the slope falling no faster than the asymptotic form
  N*D + (1/2) ln N allows, which rejects a logarithmic curve of any scale.
- 8: with enough data the boosted score learns a structure with no false
  edges when a perfect map exists. The score treats dependence weaker than
  eta as absence, and most edges of the generated networks are weaker
  than eta. So at N = 5000 the check asks for no false skeleton edge and
  no missed edge of strength >= eta, not for a small SHD against the full
  truth. The SHD and its split are still printed. Only 7 of the 69 true
  edges are eta-strong, so the missed-edge half is a thin check, and BIC
  fails the whole check by a single false edge.
"""

import math
import time
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from bnboost.beta import (
    beta_bruteforce,
    beta_exact,
    beta_mc,
    build_table,
)
from bnboost.data import Dag, random_network, sample
from bnboost.dist2x2 import (
    JointDist2x2,
    find_t_plus,
    kl_divergence,
    mutual_information,
    uniform_marginal_dist,
)
from bnboost.evaluate import (
    ExperimentConfig,
    dag_to_cpdag,
    run_experiment,
    shd,
)
from bnboost.scoring import (
    ParentSetScoreTable,
    ScoreConfig,
    build_parent_set_scores,
    edge_strength,
    total_score,
)
from bnboost.search import all_dags, brute_force, exact_dp
from oracles import bic_reference, skeleton, v_structures

ETA = 0.01
UNIF = JointDist2x2(0.25, 0.25, 0.25, 0.25)


def report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_table():
    return build_table(ETA, samples=100_000, seed=1234)


def rsquared(xs, ys):
    r = np.corrcoef(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))[0, 1]
    return float(r * r)


def test_criterion_1_beta_oracle_equivalence(ref):
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        for gamma in (0.0, 0.005, 0.01, 0.1, 0.7):
            diff = abs(beta_exact(n, gamma, ref) - beta_bruteforce(n, gamma, ref))
            worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    report(
        1, "type sum matches raw-sequence oracle",
        worst <= 1e-12 and elapsed < 60.0,
        f"max |diff| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_mc_accuracy(ref):
    t0 = time.perf_counter()
    errors = {}
    for n, tol in ((20, 0.35), (50, 0.15), (100, 0.15)):
        for gamma in (0.001, 0.005):
            exact = beta_exact(n, gamma, ref)
            est = beta_mc(n, gamma, ETA, 100_000, seed=1)
            errors[(n, gamma)] = abs(est - exact) / exact
    elapsed = time.perf_counter() - t0
    ok = (
        all(errors[(n, g)] <= 0.15 for n in (50, 100) for g in (0.001, 0.005))
        and all(errors[(20, g)] <= 0.35 for g in (0.001, 0.005))
        and elapsed < 300.0
    )
    detail = ", ".join(
        f"N={n} g={g}: {100 * e:.1f}%" for (n, g), e in sorted(errors.items())
    )
    report(2, "Monte Carlo multiplicative accuracy", ok, detail)


def test_criterion_3_linearity_in_n(ref):
    ns = np.array([200, 300, 400, 500])
    ys = np.array([-math.log(beta_exact(int(n), 0.005, ref)) for n in ns])
    r2 = rsquared(ns, ys)
    # Sanov rate D = KL(p_gamma || p_eta); p_gamma has uniform margins and MI = gamma.
    # Sharp large-deviation asymptotics for a set with a smooth boundary give
    # -ln(beta) = N*D + a*ln N + O(1) with a -> 1/2. So every secant slope stays
    # at or above D (the values strictly increase), and the slope falls from the
    # first interval to the last no faster than it does for a = 1/2. R^2 alone
    # cannot tell N from ln N on this grid; the slope ratio can (ln N gives 0.55).
    rate = kl_divergence(uniform_marginal_dist(find_t_plus(0.005)), ref)
    slopes = np.diff(ys) / np.diff(ns)
    log_slopes = 0.5 * np.diff(np.log(ns)) / np.diff(ns)
    ratio = slopes[-1] / slopes[0]
    ratio_min = (rate + log_slopes[-1]) / (rate + log_slopes[0])
    report(
        3, "-ln(beta_exact) linear in N at the Sanov rate on {200..500}",
        r2 >= 0.98 and bool(np.all(slopes >= rate)) and ratio >= ratio_min,
        f"R^2 = {r2:.4f}, secant slopes = {[f'{s:.3e}' for s in slopes]} "
        f">= Sanov rate {rate:.3e}, last/first slope {ratio:.3f} >= {ratio_min:.3f}, "
        f"values = {[round(float(y), 4) for y in ys]}",
    )


def test_criterion_4_linearity_in_kl(ref):
    gammas = np.geomspace(ETA / 100, 0.8 * ETA, 8)
    kls, ys = [], []
    for j, gamma in enumerate(gammas):
        kls.append(kl_divergence(uniform_marginal_dist(find_t_plus(float(gamma))), ref))
        ys.append(-math.log(beta_mc(2000, float(gamma), ETA, 100_000, seed=17 + j)))
    # gammas ascend, so the KL coordinate and -ln(beta) both descend;
    # increasing-in-KL means the two sequences fall together
    monotone = all(b < a for a, b in zip(ys, ys[1:]))
    r2 = rsquared(kls, ys)
    report(
        4, "-ln(beta_mc) near-linear in KL at N=2000",
        monotone and r2 >= 0.95,
        f"monotone = {monotone}, R^2 = {r2:.4f}",
    )


def test_criterion_5_exact_cost_scaling(ref):
    ns = [50, 100, 200, 400]
    beta_exact(50, 0.005, ref)  # warm-up
    times = []
    for n in ns:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            beta_exact(n, 0.005, ref)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    slope = float(np.polyfit(np.log(ns), np.log(times), 1)[0])
    report(
        5, "exact-computation runtime slope",
        2.5 <= slope <= 3.5,
        f"slope = {slope:.2f}, times = {[f'{t * 1e3:.1f}ms' for t in times]}",
    )


def test_criterion_6_analytic_identities(ref):
    worst_rt = 0.0
    for eta in np.geomspace(1e-5, 0.6, 50):
        t = find_t_plus(float(eta))
        worst_rt = max(worst_rt, abs(mutual_information(uniform_marginal_dist(t)) - eta))

    rng = np.random.default_rng(99)
    worst_id = 0.0
    for _ in range(1000):
        p = uniform_marginal_dist(float(rng.uniform(-0.2499, 0.2499)))
        worst_id = max(worst_id, abs(kl_divergence(p, UNIF) - mutual_information(p)))

    draws = rng.dirichlet(np.ones(4), size=100_000)
    neg = 0
    for row in draws:
        p = JointDist2x2(*row)
        if mutual_information(p) < 0.0 or kl_divergence(p, UNIF) < 0.0:
            neg += 1
    ok = worst_rt <= 1e-10 and worst_id <= 1e-12 and neg == 0
    report(
        6, "analytic identities",
        ok,
        f"roundtrip <= {worst_rt:.1e}, KL-MI gap <= {worst_id:.1e}, negatives = {neg}",
    )


def test_criterion_7_search_exactness():
    t0 = time.perf_counter()
    assert len(all_dags(4)) == 543
    rng = np.random.default_rng(4321)
    mismatches = 0
    for _ in range(50):
        scores = {}
        for i in range(4):
            others = [v for v in range(4) if v != i]
            fams = {}
            for k in range(len(others) + 1):
                for pa in combinations(others, k):
                    fams[frozenset(pa)] = float(rng.normal() * 4.0)
            scores[i] = fams
        table = ParentSetScoreTable(n=4, scores=scores)
        if exact_dp(table).score != brute_force(table).score:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(
        7, "subset DP matches exhaustive enumeration",
        mismatches == 0 and elapsed < 60.0,
        f"mismatches = {mismatches}/50, {elapsed:.1f}s",
    )


def shd_split(truth, learned):
    """(missing, extra, misoriented) pairs; they sum to shd(truth, learned)."""
    t, g = truth.skeleton(), learned.skeleton()
    missing, extra = len(t - g), len(g - t)
    return missing, extra, shd(truth, learned) - missing - extra


def test_criterion_8_scaled_down_recovery(default_table):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        N_schedule=[500, 5000],
        methods=[("bic", "dp"), ("boost", "dp")],
        seeds=list(range(10)),
        n=8, d=2,
        score=ScoreConfig(eta=ETA, kappa=0.5, psi2=1.0, d=2),
    )
    rows = run_experiment(cfg, beta_table=default_table)
    small, large = cfg.N_schedule
    means = {
        (r["N"], r["score_name"]): r["shd"] for r in rows if r["seed"] == "mean"
    }

    # the graphs checked below are the ones the experiment learned and scored
    names = ("boost", "bic")
    split = {key: np.zeros(3, dtype=int) for key in product(cfg.N_schedule, names)}
    faults = {name: [0, 0] for name in names}  # false edges, missed strong edges
    n_edges = n_strong = 0
    for seed in cfg.seeds:
        net = random_network(cfg.n, cfg.d, seed)
        truth = dag_to_cpdag(net.dag)
        strengths = {
            (min(a, b), max(a, b)): edge_strength(net, a, b, d=cfg.d)
            for a, b in net.dag.edges
        }
        strong = {e for e, s in strengths.items() if s >= ETA}
        n_edges += len(strengths)
        n_strong += len(strong)
        for row in rows:
            if row["seed"] != seed:
                continue
            name, n_rows = row["score_name"], row["N"]
            learned = dag_to_cpdag(row["dag"])
            split[(n_rows, name)] += shd_split(truth, learned)
            if n_rows == large:
                faults[name][0] += len(learned.skeleton() - truth.skeleton())
                faults[name][1] += len(strong - learned.skeleton())
    elapsed = time.perf_counter() - t0

    ok = (
        means[(small, "boost")] <= means[(small, "bic")]
        and faults["boost"] == [0, 0]
        and elapsed < 1800.0
    )

    def shd_text(n_rows, name):
        m, e, o = split[(n_rows, name)]
        return f"{name} {means[(n_rows, name)]:.2f} (miss {m}/extra {e}/misor {o})"

    report(
        8, f"scaled-down recovery: boost <= BIC at {small}; "
        f"boost has no false edge and no missed eta-strong edge at {large}",
        ok,
        f"SHD at {small}: {shd_text(small, 'boost')} vs {shd_text(small, 'bic')}; "
        f"at {large}: {shd_text(large, 'boost')} vs {shd_text(large, 'bic')}; "
        f"at {large} false edges / missed strong: boost {faults['boost'][0]}/"
        f"{faults['boost'][1]}, bic {faults['bic'][0]}/{faults['bic'][1]} "
        f"of {n_strong} strong; {n_edges - n_strong} of {n_edges} true edges below eta; "
        f"{elapsed:.0f}s",
    )


def test_criterion_9_score_sanity(default_table):
    rng = np.random.default_rng(777)
    cfg0 = ScoreConfig(eta=ETA, psi2=0.0)
    worst_bic = 0.0
    for _ in range(20):
        net = random_network(5, 2, seed=int(rng.integers(1 << 30)))
        data = sample(net, 150, seed=int(rng.integers(1 << 30)))
        g = random_network(5, 2, seed=int(rng.integers(1 << 30))).dag
        worst_bic = max(
            worst_bic, abs(total_score(data, g, None, cfg0) - bic_reference(data, g))
        )

    net = random_network(5, 2, seed=31)
    data = sample(net, 200, seed=32)
    cfg = ScoreConfig(eta=ETA)
    pst = build_parent_set_scores(data, default_table, cfg)
    worst_rec = 0.0
    # every labeled DAG on 5 nodes with in-degree <= 2
    bounded = [
        edges for edges in all_dags(5)
        if max(Counter(v for _, v in edges).values(), default=0) <= 2
    ]
    assert len(bounded) == 13956
    for edges in bounded:
        g = Dag(5, frozenset(edges))
        worst_rec = max(
            worst_rec,
            abs(pst.dag_score(g) - total_score(data, g, default_table, cfg)),
        )
    ok = worst_bic <= 1e-9 and worst_rec <= 1e-9
    report(
        9, "BIC equality and exhaustive reconstruction identity",
        ok,
        f"BIC gap <= {worst_bic:.1e}; reconstruction gap <= {worst_rec:.1e} "
        f"over {len(bounded)} graphs",
    )


def test_criterion_10_equivalence_classes():
    bad = 0
    classes = 0
    for n in (2, 3, 4):
        groups = {}
        for edges in all_dags(n):
            dag = Dag(n, frozenset(edges))
            groups.setdefault((skeleton(dag), v_structures(dag)), []).append(dag)
        for members in groups.values():
            classes += 1
            first = dag_to_cpdag(members[0])
            for other in members[1:]:
                p = dag_to_cpdag(other)
                if p != first or shd(first, p) != 0:
                    bad += 1
    report(
        10, "completed PDAG constant on equivalence classes (n <= 4)",
        bad == 0,
        f"{classes} classes checked, {bad} violations",
    )
