import math

import numpy as np
import pytest

from bnboost.dist2x2 import (
    T_PLUS_STEPS,
    JointDist2x2,
    SupportError,
    _mi_on_path,
    find_t_plus,
    find_t_plus_batch,
    kl_divergence,
    mi_from_counts,
    mi_from_counts_batch,
    mutual_information,
    reference_dist,
    uniform_marginal_dist,
)

LN2 = math.log(2.0)
LN4 = math.log(4.0)
# direct four-term evaluation of the MI sum for (0.35, 0.15, 0.15, 0.35)
MI_T01 = 0.08228287850505178


def direct_mi(cells):
    """Independent four-term MI sum used as the oracle in this file."""
    p00, p01, p10, p11 = cells
    pa = (p00 + p01, p10 + p11)
    pb = (p00 + p10, p01 + p11)
    s = 0.0
    for (a, b), pij in zip(((0, 0), (0, 1), (1, 0), (1, 1)), cells):
        if pij > 0:
            s += pij * math.log(pij / (pa[a] * pb[b]))
    return s


def test_mi_uniform_is_zero():
    assert mutual_information(JointDist2x2(0.25, 0.25, 0.25, 0.25)) == 0.0


def test_mi_diagonal_is_ln2():
    p = JointDist2x2(0.5, 0.0, 0.0, 0.5)
    assert mutual_information(p) == pytest.approx(LN2, abs=1e-15)


def test_mi_path_point_one():
    # the (pA0, pB0, t) = (0.5, 0.5, 0.1) point of the correlation-offset chart
    p = JointDist2x2(0.25 + 0.1, 0.25 - 0.1, 0.25 - 0.1, 0.25 + 0.1)
    assert p.cells == pytest.approx((0.35, 0.15, 0.15, 0.35), abs=1e-15)
    assert mutual_information(p) == pytest.approx(MI_T01, abs=1e-14)
    assert mutual_information(p) == pytest.approx(direct_mi(p.cells), abs=1e-15)


def test_kl_identity_and_point_mass():
    # (pA0, pB0, t) = (0.3, 0.6, 0.05)
    p = JointDist2x2(0.3 * 0.6 + 0.05, 0.3 * 0.4 - 0.05, 0.7 * 0.6 - 0.05,
                     0.7 * 0.4 + 0.05)
    assert kl_divergence(p, p) == 0.0
    point = JointDist2x2(1.0, 0.0, 0.0, 0.0)
    unif = JointDist2x2(0.25, 0.25, 0.25, 0.25)
    assert kl_divergence(point, unif) == pytest.approx(LN4, abs=1e-15)


def test_kl_from_uniform_equals_mi_on_path():
    p = uniform_marginal_dist(0.1)
    unif = JointDist2x2(0.25, 0.25, 0.25, 0.25)
    assert kl_divergence(p, unif) == pytest.approx(MI_T01, abs=1e-14)
    assert kl_divergence(p, unif) == pytest.approx(mutual_information(p), abs=1e-13)


def test_kl_support_violation():
    p = JointDist2x2(0.5, 0.5, 0.0, 0.0)
    q = JointDist2x2(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(SupportError):
        kl_divergence(p, q)


def test_mi_symmetric_in_t():
    for t in (0.01, 0.07, 0.19, 0.2401):
        assert mutual_information(uniform_marginal_dist(t)) == pytest.approx(
            mutual_information(uniform_marginal_dist(-t)), abs=1e-15
        )


def test_find_t_plus_examples():
    assert find_t_plus(1e-12) < 1e-5
    assert find_t_plus(LN2 - 1e-9) == pytest.approx(0.25, abs=1e-3)
    assert find_t_plus(MI_T01) == pytest.approx(0.1, abs=1e-9)


def test_find_t_plus_rejects_out_of_range():
    for eta in (0.0, -0.1, LN2, 1.0):
        with pytest.raises(ValueError):
            find_t_plus(eta)


def test_find_t_plus_roundtrip_grid():
    for eta in np.geomspace(1e-5, 0.6, 60):
        t = find_t_plus(float(eta))
        assert mutual_information(uniform_marginal_dist(t)) == pytest.approx(
            eta, abs=1e-10
        )


def series_mi(t):
    """MI on the uniform-marginal path at offset t as a sum of positive
    terms: sum_k x^(2k) / (2k(2k-1)), x = 4t. Above x = 0.999 that series
    needs more than 10^4 terms, so there MI = ln 2 - h(u), u = (1 - x)/2,
    with the binary entropy h(u) = u - u ln u - sum_{k>=2} u^k / (k(k-1)),
    all of whose terms after the first two are small against ln 2."""
    x = 4.0 * t
    terms = []
    if x <= 0.999:
        x2, k = x * x, 1
        while True:
            term = x2**k / (2 * k * (2 * k - 1))
            terms.append(term)
            if term <= 1e-18 * terms[0]:
                return math.fsum(terms)
            k += 1
    u = 0.5 - 2.0 * t  # exact: 2t is in [1/4, 1/2)
    k = 2
    while True:
        term = u**k / (k * (k - 1))
        terms.append(term)
        if term <= 1e-18 * u:
            return LN2 - math.fsum([u, -u * math.log(u)] + [-v for v in terms])
        k += 1


def oracle_t_plus(eta):
    """Bisection on series_mi for up to T_PLUS_STEPS steps, stopped once no
    float lies strictly between the bracket's ends (a relative stop in t);
    the end whose MI is nearer eta wins."""
    lo, hi = 0.0, 0.25
    for _ in range(T_PLUS_STEPS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if series_mi(mid) < eta:
            lo = mid
        else:
            hi = mid
    return min((lo, hi), key=lambda t: abs(series_mi(t) - eta))


ORACLE_ETAS = (3.4e-13, 1e-12, 1e-10, 1e-6, 1e-4, 5e-3, 0.01, 0.3, 0.6, LN2 - 1e-9)


def test_t_plus_within_4_ulp_of_series_bisection():
    rng = np.random.default_rng(2024)
    etas = np.concatenate((ORACLE_ETAS, rng.uniform(0.0, 0.02, 200)))
    ts = find_t_plus_batch(etas)
    ref = np.array([oracle_t_plus(float(e)) for e in etas])
    rel = np.abs(ts - ref) / ref
    assert rel.max() <= 4 * np.finfo(np.float64).eps, (etas[rel.argmax()], rel.max())


def test_path_mi_matches_series_at_small_t():
    ts = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    mi, _ = _mi_on_path(ts)
    for t, m in zip(ts, mi):
        ref = series_mi(float(t))
        assert abs(m - ref) <= 1e-15 * ref, (t, m, ref)


def test_reference_dist():
    with pytest.raises(ValueError):
        reference_dist(0.0)
    p = reference_dist(MI_T01)
    assert p.cells == pytest.approx((0.35, 0.15, 0.15, 0.35), abs=1e-9)
    q = reference_dist(0.01)
    assert q.p00 == q.p11
    assert q.p01 == q.p10
    assert mutual_information(q) == pytest.approx(0.01, abs=1e-12)


def test_mi_kl_nonnegative_random():
    rng = np.random.default_rng(123)
    w = rng.dirichlet(np.ones(4), size=100_000)
    unif = JointDist2x2(0.25, 0.25, 0.25, 0.25)
    for row in w[:2000]:
        p = JointDist2x2(*row)
        assert mutual_information(p) >= 0.0
        assert kl_divergence(p, unif) >= 0.0
    # full 1e5 sweep with the raw formulas, vectorized
    pa0 = w[:, 0] + w[:, 1]
    pb0 = w[:, 0] + w[:, 2]
    marg = np.stack(
        [pa0 * pb0, pa0 * (1 - pb0), (1 - pa0) * pb0, (1 - pa0) * (1 - pb0)], axis=1
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        mi = np.where(w > 0, w * np.log(w / marg), 0.0).sum(axis=1)
        kl = np.where(w > 0, w * np.log(4 * w), 0.0).sum(axis=1)
    assert (mi >= -1e-14).all()
    assert (kl >= -1e-14).all()


def test_kl_uniform_equals_mi_for_uniform_marginals():
    rng = np.random.default_rng(42)
    unif = JointDist2x2(0.25, 0.25, 0.25, 0.25)
    for _ in range(1000):
        t = rng.uniform(-0.2499, 0.2499)
        p = uniform_marginal_dist(t)
        assert abs(kl_divergence(p, unif) - mutual_information(p)) <= 1e-12


def test_mi_from_counts_product_tables_exact_zero():
    rng = np.random.default_rng(5)
    tables = []
    for _ in range(500):
        r0, c0, n = rng.integers(0, 50), rng.integers(0, 50), 50
        if (r0 * c0) % n:
            continue
        t00 = r0 * c0 // n
        table = (t00, r0 - t00, c0 - t00, n - r0 - c0 + t00)
        if min(table) < 0:
            continue
        assert mi_from_counts(*table) == 0.0
        tables.append(table)
    # the vectorized kernel the score uses, all tables in one call
    assert len(tables) > 20
    counts = np.array(tables, dtype=np.int64)
    assert (mi_from_counts_batch(*counts.T) == 0.0).all()
    assert mi_from_counts(1, 0, 0, 1) == pytest.approx(LN2, abs=1e-15)
    with pytest.raises(ValueError):
        mi_from_counts(0, 0, 0, 0)


def test_mi_from_counts_matches_normalized_mi():
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 30, size=(300, 4))
    batch = mi_from_counts_batch(*counts.T)
    for c, mi in zip(counts, batch):
        if c.sum() == 0:
            assert mi == 0.0
            continue
        n = float(c.sum())
        p = JointDist2x2(*(ci / n for ci in c))
        scalar = mi_from_counts(*(int(x) for x in c))
        assert scalar == pytest.approx(mutual_information(p), abs=1e-12)
        assert mi == pytest.approx(scalar, rel=1e-13, abs=0)
    assert mi_from_counts_batch(*np.zeros((4, 1), dtype=np.int64))[0] == 0.0


def test_mi_batch_matches_scalar_on_every_small_table():
    # every 2x2 table of counts with 1 <= N <= 30, then the same tables as
    # float masses: MI does not change with scale, and edge strengths pass
    # the batch raw probability masses
    tables = np.array([
        (c00, c01, c10, n - c00 - c01 - c10) for n in range(1, 31)
        for c00 in range(n + 1) for c01 in range(n + 1 - c00)
        for c10 in range(n + 1 - c00 - c01)
    ])
    scalar = [mi_from_counts(*t) for t in tables.tolist()]
    assert mi_from_counts_batch(*tables.T) == pytest.approx(scalar, rel=0, abs=1e-15)
    masses = tables / tables.sum(axis=1, keepdims=True)
    assert mi_from_counts_batch(*masses.T) == pytest.approx(scalar, rel=0, abs=1e-15)


def test_joint_dist_validation():
    with pytest.raises(ValueError):
        JointDist2x2(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValueError):
        JointDist2x2(0.3, 0.3, 0.3, 0.3)


@pytest.mark.parametrize("t", [0.25, -0.25])
def test_uniform_marginal_path_refuses_its_end_points(t):
    with pytest.raises(ValueError) as info:
        uniform_marginal_dist(t)
    assert str(info.value) == f"t={t!r} outside (-1/4, 1/4)"
