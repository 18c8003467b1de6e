"""Re-measure the ROADMAP item-1 baseline figures that the workloads overlap.

    python3 perfbench/roadmap_baseline.py [--out FILE]

Run from the repository root. Measures, one thread, median of three where
cheap: build_table(0.01) (the boosted workloads' set-up), boosted
build_parent_set_scores at N=5000 for n = 8, 12, 16, exact_dp on random
d=2 score tables for n = 16 and 20 with the process's peak RSS, the
criterion-8 experiment (10 seeds, N in {500, 5000}, BIC and boost with
DP), and beta_exact(N=500, gamma=0.005). Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def timed(fn, repeat: int = 3) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def random_score_table(n: int, d: int, seed: int):
    import numpy as np
    from bnboost.scoring import ParentSetScoreTable

    rng = np.random.default_rng(seed)
    scores = {}
    for i in range(n):
        others = [v for v in range(n) if v != i]
        scores[i] = {frozenset(pa): float(rng.normal())
                     for k in range(d + 1) for pa in combinations(others, k)}
    return ParentSetScoreTable(n=n, scores=scores)


def dp_probe(n: int) -> dict:
    """exact_dp on one random table, in this process: seconds and peak RSS."""
    from bnboost.search import exact_dp

    table = random_score_table(n, 2, seed=n)
    start = time.perf_counter()
    exact_dp(table)
    return {"s": time.perf_counter() - start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def dp_in_fresh_process(n: int) -> dict:
    out = subprocess.run([sys.executable, __file__, "--dp-probe", str(n)], cwd=ROOT,
                         capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None, help="also write the JSON here")
    parser.add_argument("--dp-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dp_probe is not None:
        print(json.dumps(dp_probe(args.dp_probe)))
        return 0

    from bnboost.beta import beta_exact, build_table
    from bnboost.data import random_network, sample
    from bnboost.dist2x2 import reference_dist
    from bnboost.evaluate import ExperimentConfig, run_experiment
    from bnboost.scoring import ScoreConfig, build_parent_set_scores

    eta = 0.01
    out = {}
    table = build_table(eta)
    out["build_table_0.01_s"] = timed(lambda: build_table(eta))
    cfg = ScoreConfig(eta=eta, kappa=0.5, psi2=1.0, d=2)
    for n in (8, 12, 16):
        data = sample(random_network(n, 2, seed=n), 5000, seed=n + 1)
        out[f"build_parent_set_scores_N5000_n{n}_s"] = timed(
            lambda: build_parent_set_scores(data, table, cfg), repeat=1 if n == 16 else 3)
    for n in (16, 20):
        probe = dp_in_fresh_process(n)
        out[f"exact_dp_n{n}_s"] = probe["s"]
        out[f"exact_dp_n{n}_peak_rss_mb"] = probe["peak_rss_mb"]
    exp = ExperimentConfig(
        N_schedule=[500, 5000], methods=[("bic", "dp"), ("boost", "dp")],
        seeds=list(range(10)), n=8, d=2, score=cfg,
    )
    out["criterion8_experiment_s"] = timed(lambda: run_experiment(exp, beta_table=table),
                                           repeat=1)
    out["beta_exact_N500_gamma0.005_s"] = timed(
        lambda: beta_exact(500, 0.005, reference_dist(eta)), repeat=1)
    text = json.dumps(out, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
