"""Steadiness check: run workloads with several seeds, report spreads.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--seed-base N]

Runs ``run.py`` once per seed (``seed-base`` .. ``seed-base + runs - 1``)
for each workload, with the ``run_seconds`` of ``BENCHMARK.json``, and
prints for every end-to-end metric its median, first and third
quartile, and spread — the quartile distance as a share of the median —
next to the metric's bound.  A spread within a third of its bound is
``steady``; within the bound ``ok``; beyond it ``TOO NOISY``.  Exits 1
if any run failed or any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402


def run_once(workload: str, seed: int,
             seconds: int) -> tuple[dict | None, float]:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr[-2000:])
        return None, elapsed
    return json.loads(lines[-1]), elapsed


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    healthy = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        durations = []
        for seed in range(args.seed_base, args.seed_base + args.runs):
            result, elapsed = run_once(workload, seed,
                                       benchmark["run_seconds"])
            durations.append(elapsed)
            if result is None or not result["correct"]:
                print(f"{workload} seed={seed}: run FAILED")
                healthy = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed={seed} ({elapsed:.0f}s): "
                  + " ".join(f"{name}={metric['value']:.6g}"
                             for name, metric in result["metrics"].items()),
                  flush=True)
        print(f"\n{workload}: {len(durations)} runs, "
              f"{max(durations):.0f}s slowest")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for metric in benchmark["end_to_end"]:
            series = values.get(metric["name"], [])
            if len(series) < 2:
                continue
            mid, q1, q3, spread = measure.spread(series)
            bound = metric["bound"]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "ok"
            else:
                verdict = "TOO NOISY"
                healthy = False
            print(f"  {metric['name']:14s} {mid:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.3f} {bound:6.2f} {verdict}")
        print(flush=True)
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
