"""Span recording around calls into bnboost's modules, from outside them.

The package's modules import each other's functions by name, so a call
such as scoring -> beta.query_neg_ln_beta looks the callee up in the
*caller's* namespace (bnboost.scoring.query_neg_ln_beta). The tracer swaps
those attributes for wrappers that record a span per call: layer name,
start, end, parent span and job id. Spans stay in memory while the run
lasts and are written out once at the end. Every per-layer metric is
derived from the spans and from the counters the same wrappers keep.

No file under src/ changes; uninstall() puts the original attributes back.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module, attribute the caller looks up, layer name). One layer can sit
# behind several attributes when several modules import the same function.
PATCH_POINTS = (
    ("bnboost.dist2x2", "find_t_plus", "dist2x2.find_t_plus"),
    ("bnboost.beta", "find_t_plus", "dist2x2.find_t_plus"),
    ("bnboost.scoring", "mi_from_counts", "dist2x2.mi_from_counts"),
    ("bnboost.scoring", "query_neg_ln_beta", "beta.query"),
    ("bnboost.beta", "build_table", "beta.build_table"),
    ("bnboost.beta", "beta_mc", "beta.mc"),
    ("bnboost.beta", "beta_product_mass", "beta.product_mass"),
    ("bnboost.evaluate", "sample", "data.sample"),
    ("bnboost.cli", "load_dataset", "data.load_dataset"),
    ("bnboost.scoring", "build_parent_set_scores", "scoring.build"),
    ("bnboost.evaluate", "build_parent_set_scores", "scoring.build"),
    ("bnboost.cli", "build_parent_set_scores", "scoring.build"),
    ("bnboost.scoring", "pair_boosts", "scoring.pair_boosts"),
    ("bnboost.cli", "save_scores", "scoring.save_scores"),
    ("bnboost.cli", "load_scores", "scoring.load_scores"),
    ("bnboost.search", "exact_dp", "search.exact_dp"),
    ("bnboost.evaluate", "exact_dp", "search.exact_dp"),
    ("bnboost.cli", "exact_dp", "search.exact_dp"),
    ("bnboost.search", "greedy_hill_climb", "search.greedy"),
    ("bnboost.evaluate", "greedy_hill_climb", "search.greedy"),
    ("bnboost.cli", "greedy_hill_climb", "search.greedy"),
    ("bnboost.evaluate", "run_experiment", "evaluate.run_experiment"),
    ("bnboost.evaluate", "dag_to_cpdag", "evaluate.dag_to_cpdag"),
    ("bnboost.cli", "dag_to_cpdag", "evaluate.dag_to_cpdag"),
    ("bnboost.evaluate", "shd", "evaluate.shd"),
    ("bnboost.cli", "shd", "evaluate.shd"),
    ("bnboost.cli", "main", "cli.main"),
)

# Called once per beta query: a span here would cost as much as the call,
# so only the calls are counted; their time stays in the caller's self time.
COUNT_ONLY = frozenset({"dist2x2.mi_from_counts"})

SETUP_JOB = -1


def _count_query(counters, args, kwargs, result):
    table, n, gamma = args
    counters["beta.query.zero"] += result == 0.0
    if gamma < table.eta:  # below eta the value is interpolated in N
        counters["beta.query.above_grid"] += n > table.N_grid[-1]
        counters["beta.query.below_grid"] += n < table.N_grid[0]


def _count_families(counters, args, kwargs, result):
    counters["scoring.families"] += sum(len(f) for f in result.scores.values())


def _count_pairs(counters, args, kwargs, result):
    counters["scoring.pairs"] += len(result)
    counters["scoring.pairs_boosted"] += sum(1 for v in result.values() if v > 0.0)


RESULT_HOOKS = {
    "beta.query": _count_query,
    "scoring.build": _count_families,
    "scoring.pair_boosts": _count_pairs,
}


class Tracer:
    """Records spans (layer, start, end, parent, job) while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name_id, start, end, parent index, job)
        self.calls: dict[tuple[str, int], int] = defaultdict(int)  # count-only
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._saved: list = []
        self.job = SETUP_JOB

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, name):
        name_id = self._name_id(name)
        hook = RESULT_HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.job)
            if hook is not None:
                hook(self.counters[self.job], args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, fn, name):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[(name, self.job)] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, job: int) -> None:
        """Swap every patch point for its wrapper; spans get this job id."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.job = job
        for mod_name, attr, name in PATCH_POINTS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
            self._saved.append((mod, attr, original))
            setattr(mod, attr, make(original, name))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def write(self, path, **meta) -> None:
        doc = dict(meta)
        doc["fields"] = ["name", "start", "end", "parent", "job"]
        doc["names"] = self.names
        doc["spans"] = [list(s) for s in self.spans]
        doc["calls"] = [[n, j, c] for (n, j), c in sorted(self.calls.items())]
        doc["counters"] = {str(j): dict(c) for j, c in sorted(self.counters.items())}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def layer_totals(self, jobs) -> dict[str, float]:
        """Sums over the given job ids: '<layer>.calls', '<layer>.s' (span
        time) and '<layer>.self_s' (span time minus its wrapped children),
        plus every counter the result hooks keep."""
        jobs = set(jobs)
        child_time: dict[int, float] = defaultdict(float)
        for name_id, start, end, parent, job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name_id, start, end, parent, job) in enumerate(self.spans):
            if job not in jobs:
                continue
            name = self.names[name_id]
            out[name + ".calls"] += 1
            out[name + ".s"] += end - start
            out[name + ".self_s"] += end - start - child_time[idx]
        for (name, job), count in self.calls.items():
            if job in jobs:
                out[name + ".calls"] += count
        for job in jobs:
            for key, value in self.counters.get(job, {}).items():
                out[key] += value
        return out
