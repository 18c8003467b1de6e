"""Run every workload of BENCHMARK.json and print each metric with its unit.

    python3 perfbench/report.py [--seeds 1,2,3] [--seconds S] [--trace 0|1]
                                [--out FILE]

Run from the repository root. Each (workload, seed) is one run of the
benchmark command in its own process, one after another. Per workload and
metric it prints the median over the seeds. With several seeds it also
prints each end-to-end metric's spread, the distance between the first and
third quartile as a share of the median, next to the metric's bound. Exits 1 if any run fails, reports
correct = false, or counts a failed job.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    doc["wall_s"] = wall
    return doc


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write every run's result here")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    specs = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}

    ok = True
    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        docs = []
        for seed in seeds:
            doc = run_once(bench, workload, seed, args.seconds, args.trace)
            docs.append(doc)
            print(f"{workload} seed {seed}: correct={doc['correct']} "
                  f"attempted={doc['attempted']} failed={doc['failed']} "
                  f"wall {doc['wall_s']:.1f} s", flush=True)
            ok &= doc["correct"] and doc["failed"] == 0
        results[workload] = docs
        for name, spec in specs.items():
            values = [d["metrics"][name]["value"] for d in docs]
            bound = spec.get("bound")
            s = spread(values)
            line = (f"  {workload:14s} {name:32s} {statistics.median(values):14.6g} "
                    f"{spec['unit']:6s}")
            if len(values) > 1 and bound is not None:
                line += f" spread {s:7.4f} bound {bound:.2f}"
                line += "" if s <= bound / 3 else "  <-- above bound/3"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print("all runs correct, no failed jobs" if ok else "SOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
