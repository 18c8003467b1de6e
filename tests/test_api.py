"""The names other code reaches into the package by must exist.

perfbench/tracing.py swaps module attributes (PATCH_POINTS) for recording
wrappers, and `from bnboost import *` reads every module's __all__; a
deletion that leaves either pointing at a missing name fails here rather
than in a benchmark run. The package also must not pull scipy back in.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import bnboost
from bnboost import evaluate, scoring
from bnboost.beta import build_table
from bnboost.data import random_network, sample

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = ("dist2x2", "beta", "data", "scoring", "search", "evaluate")


def patch_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PATCH_POINTS


def test_tracer_patch_points_resolve():
    points = patch_points()
    assert points
    missing = [
        (module, attr) for module, attr, _ in points
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("name", ("", *MODULES))
def test_all_names_resolve(name):
    module = importlib.import_module(f"bnboost.{name}" if name else "bnboost")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_run_experiment_calls_through_evaluate_globals(monkeypatch):
    """perfbench's recovery-n8 records score tables and search results by
    swapping these two names in bnboost.evaluate; a run_experiment that
    stopped calling them there would fail every benchmark job."""
    build, dp = evaluate.build_parent_set_scores, evaluate.exact_dp
    built, searched = [], []

    def recording_build(data, table, cfg):
        built.append(build(data, table, cfg))
        return built[-1]

    def recording_dp(scores):
        searched.append(dp(scores))
        return searched[-1]

    monkeypatch.setattr(evaluate, "build_parent_set_scores", recording_build)
    monkeypatch.setattr(evaluate, "exact_dp", recording_dp)
    cfg = evaluate.ExperimentConfig(
        N_schedule=[200], methods=[("bic", "dp")], seeds=[0], n=3
    )
    (row,) = [r for r in evaluate.run_experiment(cfg) if r["seed"] != "mean"]
    assert len(built) == 1 and len(searched) == 1
    assert row["dag"] is searched[0].dag
    assert row["total_score"] == searched[0].score


def test_build_calls_pair_boosts_through_scoring_globals(monkeypatch):
    """perfbench times the scoring.pair_boosts span and counts
    scoring.pairs by swapping this name in bnboost.scoring; a build that
    stopped calling it there, or once per boosted build, would leave both
    reading wrong."""
    boosts, got = scoring.pair_boosts, []

    def recording_boosts(data, table, cfg, **kwargs):
        got.append(boosts(data, table, cfg, **kwargs))
        return got[-1]

    monkeypatch.setattr(scoring, "pair_boosts", recording_boosts)
    data = sample(random_network(4, 2, seed=3), 200, seed=4)
    table = build_table(0.01, N_grid=[50, 200], gamma_grid=[0.0, 0.005], samples=1000)
    scoring.build_parent_set_scores(data, table, scoring.ScoreConfig())
    assert len(got) == 1 and isinstance(got[0], dict)
    assert list(got[0]) == list(combinations(range(4), 2))
    scoring.build_parent_set_scores(data, None, scoring.ScoreConfig(psi2=0.0))
    assert len(got) == 1


def test_import_and_table_build_load_no_scipy():
    code = (
        "import sys, bnboost, bnboost.beta\n"
        "bnboost.beta.build_table(0.01, N_grid=[20], gamma_grid=[0.0, 0.001])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(bnboost.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
