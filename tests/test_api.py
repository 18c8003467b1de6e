"""The names other code reaches into the package by must exist.

perfbench/tracing.py swaps module attributes (PATCH_POINTS) for recording
wrappers, and `from bnboost import *` reads every module's __all__; a
deletion that leaves either pointing at a missing name fails here rather
than in a benchmark run. The package also must not pull scipy back in,
and every perfbench workload's jobs must pass that workload's checks.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import pytest

import bnboost
from bnboost import evaluate, scoring
from bnboost.beta import build_table
from bnboost.data import random_network, sample

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
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
    table = build_table(0.01, N_grid=[50, 200], gamma_grid=[0.0, 0.005])
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


def test_every_benchmark_workload_passes_its_checks(tmp_path):
    """Two untraced and two traced jobs of each perfbench workload run and
    pass the workload's own output checks. A fresh interpreter keeps
    recovery-n8's patching of bnboost.evaluate out of this process. Inside
    it the workloads share one process, recovery-n8 first, so its recording
    exact_dp stays on bnboost.evaluate and cli-bic-n12's learn searches
    through it (run_search looks the search up there). That works: the
    wrapper returns the search's result, and recovery-n8's list of recorded
    graphs, where it stores that result, is not empty by then. The
    benchmark itself runs one workload per process."""
    code = textwrap.dedent(f"""
        import sys
        from pathlib import Path
        sys.path.insert(0, {str(PERFBENCH)!r})
        import run
        from tracing import Tracer
        tracer = Tracer()
        _, table, _ = run.import_and_set_up(True, tracer)
        from workloads import WORKLOADS
        for name, workload in WORKLOADS.items():
            workdir = Path(sys.argv[1], name)
            workdir.mkdir()
            wl = workload(1, workdir, table)
            wl.min_jobs = 2
            wl.prepare()
            times, traced, shds, failed = run.run_jobs(wl, 0.0, tracer, 1)
            print(name, len(times), sum(traced), sorted(failed),
                  sorted(i for i, got in shds.items() if got))
    """)
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], cwd=tmp_path,
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        f"{name} 4 2 [] [0, 1, 2, 3]"
        for name in ("recovery-n8", "bic-dp-n18", "boost-bigN-n8", "cli-bic-n12")
    ], out.stderr
