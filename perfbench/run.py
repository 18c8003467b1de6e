"""bnboost benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; bnboost is imported from ./src. Set-up
(importing bnboost, plus build_table(eta) for the boosted workloads) is
timed first. The workload then makes its inputs from --seed, and one
client runs job after job, each starting when the previous one ends.
Each job's output is checked right after it, outside the job's time.
The run ends once the job times add up to --seconds and the workload's
minimum job count has run.

--trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
metrics: jobs alternate, a pool-sized pass at a time, between untraced
and traced; the traced ones record spans at calls into bnboost's modules
(see tracing.py), written to .perfbench_work/spans/ at the end.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
ETA = 0.01
NEEDS_TABLE = {  # workload -> whether its set-up builds the beta table
    "recovery-n8": True,
    "bic-dp-n18": False,
    "boost-bigN-n8": True,
    "cli-bic-n12": False,
}
MAX_PHASE_S = 100.0  # stop early rather than overrun the 180 s run limit
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s.p90": "s",
    "peak_rss_mb": "MB",
    "shd_mean": "edges",
    "ok_frac": "ratio",
}

# per-layer metric -> (unit, where it comes from). "job" values are means
# per traced job, "setup" values are for the one traced set-up, "ratio"
# values are computed in per_layer().
PER_LAYER = {
    "dist2x2.find_t_plus.calls": ("count", "job"),
    "dist2x2.find_t_plus.s": ("s", "job"),
    "dist2x2.mi_from_counts.calls": ("count", "job"),
    "beta.query.calls": ("count", "job"),
    "beta.query.self_s": ("s", "job"),
    "beta.query.zero_frac": ("ratio", "ratio"),
    "beta.query.above_grid": ("count", "job"),
    "beta.query.below_grid": ("count", "job"),
    "beta.build_table.s": ("s", "setup"),
    "beta.mc.calls": ("count", "setup"),
    "beta.mc.s": ("s", "setup"),
    "beta.product_mass.s": ("s", "setup"),
    "beta.exact.self_s": ("s", "setup"),
    "data.sample.s": ("s", "job"),
    "data.load_dataset.s": ("s", "job"),
    "scoring.build.s": ("s", "job"),
    "scoring.build.self_s": ("s", "job"),
    "scoring.pair_boosts.s": ("s", "job"),
    "scoring.pair_boosts.self_s": ("s", "job"),
    "scoring.families": ("count", "job"),
    "scoring.pairs": ("count", "job"),
    "scoring.pairs_boosted_frac": ("ratio", "ratio"),
    "scoring.save_scores.s": ("s", "job"),
    "scoring.load_scores.s": ("s", "job"),
    "cli.main.self_s": ("s", "job"),
    "search.exact_dp.s": ("s", "job"),
    "search.greedy.s": ("s", "job"),
    "evaluate.run_experiment.self_s": ("s", "job"),
    "evaluate.dag_to_cpdag.s": ("s", "job"),
    "evaluate.shd.s": ("s", "job"),
    "trace.overhead_frac": ("ratio", "ratio"),
}

# build_table's own time, outside its wrapped children, is mostly the
# exact type sums
SPAN_OF = {"beta.exact.self_s": "beta.build_table.self_s"}


def import_and_set_up(needs_table: bool, tracer=None):
    """The set-up a user pays: import bnboost, and build the beta table if
    the workload boosts. Returns (bnboost module, table, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import bnboost
    import bnboost.beta

    table = None
    if needs_table:
        if tracer:
            from tracing import SETUP_JOB

            tracer.install(SETUP_JOB)
        try:
            table = bnboost.beta.build_table(ETA)
        finally:
            if tracer:
                tracer.uninstall()
    return bnboost, table, time.perf_counter() - start


def setup_in_fresh_process(workload: str) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_jobs(wl, seconds: float, tracer, pass_len: int):
    """Closed loop with one client: job i starts when job i-1 and its output
    check have ended. Only the jobs are timed; the loop stops once the job
    times add up to `seconds` and the workload's minimum count has run.
    With a tracer, every second pass of pass_len jobs is traced, and twice
    the minimum count runs. Returns (job seconds, traced flags,
    {job: SHDs} of the jobs that passed, failed job ids)."""
    from workloads import CheckFailed

    min_jobs = wl.min_jobs * (2 if tracer else 1)
    times, traced_flags, shds, failed = [], [], {}, set()
    start = time.perf_counter()
    i = 0
    while (i < min_jobs or sum(times) < seconds) and time.perf_counter() - start < MAX_PHASE_S:
        traced = tracer is not None and (i // pass_len) % 2 == 1
        if traced:
            tracer.install(i)
        t0 = time.perf_counter()
        try:
            output = wl.run(i)
        except Exception:
            output = None
            failed.add(i)
            print(f"job {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
        times.append(time.perf_counter() - t0)
        if traced:
            tracer.uninstall()
        traced_flags.append(traced)
        if output is not None:
            try:
                shds[i] = wl.check(i, output)
            except CheckFailed as exc:
                failed.add(i)
                print(f"job {i} failed a check: {exc}", file=sys.stderr)
            except Exception:
                failed.add(i)
                print(f"job {i} check raised:\n{traceback.format_exc()}", file=sys.stderr)
        i += 1
    return times, traced_flags, shds, failed


def per_layer(wl, tracer, times, traced_flags):
    from tracing import SETUP_JOB

    traced = [i for i, t in enumerate(traced_flags) if t][: wl.min_jobs]
    untraced = [i for i, t in enumerate(traced_flags) if not t][: wl.min_jobs]
    per_job = tracer.layer_totals(traced)
    setup = tracer.layer_totals([SETUP_JOB])
    out = {}
    for name, (_, source) in PER_LAYER.items():
        if source == "setup":
            out[name] = setup.get(SPAN_OF.get(name, name), 0.0)
        elif source == "job":
            out[name] = per_job.get(name, 0.0) / len(traced)

    def share(part, whole):
        return per_job.get(part, 0.0) / per_job[whole] if per_job.get(whole) else 0.0

    out["beta.query.zero_frac"] = share("beta.query.zero", "beta.query.calls")
    out["scoring.pairs_boosted_frac"] = share("scoring.pairs_boosted", "scoring.pairs")
    base = statistics.median(times[i] for i in untraced)
    out["trace.overhead_frac"] = statistics.median(times[i] for i in traced) / base - 1.0
    return {name: out[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NEEDS_TABLE))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this process, print it and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bnboost" / "__init__.py").is_file():
        print(f"no bnboost sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    needs_table = NEEDS_TABLE[args.workload]
    tracer = None
    if args.trace and not args.setup_probe:
        from tracing import Tracer

        tracer = Tracer()
    bnboost, table, setup_s = import_and_set_up(needs_table, tracer)
    if Path(bnboost.__file__).resolve().parent != ROOT / "src" / "bnboost":
        print(f"imported bnboost from {bnboost.__file__}, not ./src", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    setups = [setup_s]
    if not args.trace:
        setups += [setup_in_fresh_process(args.workload) for _ in range(SETUP_SAMPLES - 1)]

    from workloads import NETWORKS, WORKLOADS

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, workdir, table)
    wl.prepare()

    loop_start = time.perf_counter()
    times, traced_flags, shds, failed = run_jobs(wl, args.seconds, tracer, NETWORKS)
    loop_s = time.perf_counter() - loop_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(workdir, ignore_errors=True)
    first = [s for i in range(wl.min_jobs) for s in shds.get(i, [])]
    if not first:
        print("none of the first jobs completed and passed its checks", file=sys.stderr)
        return 1

    if tracer:
        metrics = per_layer(wl, tracer, times, traced_flags)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.json",
                     workload=args.workload, seed=args.seed,
                     traced_jobs=[i for i, t in enumerate(traced_flags) if t])
    else:
        attempted = len(times)
        metrics = {
            "setup_s": statistics.median(setups),
            "job_s.p90": percentile(times, 90),
            "peak_rss_mb": rss_mb,
            "shd_mean": statistics.fmean(first),
            "ok_frac": (attempted - len(failed)) / attempted,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{args.workload:14s} {name:32s} {value:14.6g} {units[name]}", file=sys.stderr)
    # the median and the rate swing with the host's speed too much to gate
    # (see README.md); they are shown, not reported
    print(f"{args.workload:14s} jobs {len(times)}, failed {len(failed)}, "
          f"job time {sum(times):.1f} s (median {statistics.median(times):.4g} s, "
          f"{(len(times) - len(failed)) / sum(times):.4g} jobs/s), "
          f"loop with checks {loop_s:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(times),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
