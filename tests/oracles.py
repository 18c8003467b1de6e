"""Independent oracles that more than one test module compares against.

pytest does not collect this module (its name does not start with test_);
the test modules import it by name, as tests/ is on the path.
"""

import math
from itertools import combinations


def bic_reference(data, dag):
    """Independent BIC oracle: plain-python counts, psi1 = ln(N)/2."""
    ll = 0.0
    params = 0
    for i in range(dag.n):
        pa = dag.parents(i)
        counts = {}
        for row in data.rows:
            key = tuple(int(row[p]) for p in pa)
            c = counts.setdefault(key, [0, 0])
            c[int(row[i])] += 1
        params += 2 ** len(pa)
        for c0, c1 in counts.values():
            for c in (c0, c1):
                if c:
                    ll += c * math.log(c / (c0 + c1))
    return ll - (math.log(data.n_rows) / 2) * params


def skeleton(dag):
    """The adjacent pairs of dag, each as (min, max)."""
    return frozenset((min(u, v), max(u, v)) for u, v in dag.edges)


def v_structures(dag):
    """Unshielded colliders a -> y <- b, with a < b."""
    out = set()
    for y in range(dag.n):
        for a, b in combinations(sorted(dag.parents(y)), 2):
            if not dag.adjacent(a, b):
                out.add((a, y, b))
    return frozenset(out)
