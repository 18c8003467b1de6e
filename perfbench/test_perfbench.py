"""Tests of the benchmark itself: run with

    python3 -m pytest perfbench/test_perfbench.py

Each traced run happens in a fresh interpreter, as the benchmark's own
runs do, because bnboost caches KL coordinates per process and a warm
cache would change the call counts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Two untraced then two traced recovery-n8 jobs, checked, in a fresh process.
SHORT_TRACED_RUN = """
import json, sys
from pathlib import Path
sys.path.insert(0, {here!r})
import run
from tracing import Tracer
tracer = Tracer()
bnboost, table, _ = run.import_and_set_up(True, tracer)
from workloads import WORKLOADS
workdir = Path({workdir!r})
workdir.mkdir(parents=True, exist_ok=True)
wl = WORKLOADS["recovery-n8"]({seed}, workdir, table)
wl.min_jobs = 2
wl.prepare()
times, flags, shds, failed = run.run_jobs(wl, 0.0, tracer, 2)
layers = run.per_layer(wl, tracer, times, flags)
counts = {{k: v for k, v in layers.items() if run.PER_LAYER[k][0] in ("count", "ratio")
          and k != "trace.overhead_frac"}}
print(json.dumps({{"counts": counts, "shds": shds, "failed": sorted(failed),
                  "seeds": [wl.config(i).seeds for i in range(len(times))]}}))
"""


def short_traced_run(seed: int, workdir: Path) -> dict:
    code = SHORT_TRACED_RUN.format(here=str(HERE), workdir=str(workdir), seed=seed)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("runs")
    return [short_traced_run(seed, base / f"run{k}")
            for k, seed in enumerate((11, 11, 12))]


def test_counts_and_shd_repeat_for_same_seed(runs):
    first, again, _ = runs
    assert first["failed"] == [] and again["failed"] == []
    assert first["counts"]["beta.query.calls"] > 0
    assert first["counts"] == again["counts"]
    assert first["shds"] == again["shds"]


def test_other_seed_gives_other_jobs(runs):
    first, _, other = runs
    assert other["failed"] == []
    assert first["seeds"] != other["seeds"]
    assert first["counts"] != other["counts"]


@pytest.mark.parametrize("name", ["bic-dp-n18", "boost-bigN-n8", "cli-bic-n12"])
def test_other_seed_gives_other_data(tmp_path, name):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    wls = []
    for seed in (11, 12):
        wl = WORKLOADS[name](seed, tmp_path / str(seed), None)
        wl.workdir.mkdir()
        wl.pool = 2
        wl.prepare()
        wls.append(wl)
    assert [net.dag for net in wls[0].nets] == [net.dag for net in wls[1].nets]
    assert (wls[0].data[0].rows != wls[1].data[0].rows).any()


def test_fails_without_sources(tmp_path):
    """Holding only BENCHMARK.json and the benchmark, it must fail, not report."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "recovery-n8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
