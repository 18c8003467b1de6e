"""The names other code reaches into the package by must exist.

perfbench/tracing.py swaps module attributes (PATCH_POINTS) for recording
wrappers, and `from bnboost import *` reads every module's __all__; a
deletion that leaves either pointing at a missing name fails here rather
than in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import bnboost

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
