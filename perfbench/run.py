"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints a table of every figure the run produced (name, value, unit) and,
as the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.  Exits 1
when any output of the program was wrong (the JSON line then reads
``"correct": false``) or a metric was not measured, 2 when the program
cannot be found, 3 when the run is invalid (the load generator fell
behind) but every answer was right.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    return benchmark["per_layer" if trace else "end_to_end"]


def format_value(value: float | None) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing "
              f"({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    import workloads

    # A terminated run still unwinds, so its servers are shut down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    declared = declared_metrics(bool(args.trace))
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, (value, unit) in result.figures.items():
        print(f"{name:42s} {format_value(value):>22s} {unit}")
    for problem in result.problems[:20]:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    metrics = {}
    unmeasured = []
    for metric in declared:
        value, unit = result.figures.get(metric["name"], (None, None))
        if value is None or not math.isfinite(value) or unit != metric["unit"]:
            unmeasured.append(f"{metric['name']} (got {value!r} {unit!r})")
        else:
            metrics[metric["name"]] = {"value": value, "unit": unit}
    line = json.dumps({"correct": result.correct,
                       "attempted": result.attempted,
                       "failed": result.failed, "metrics": metrics})
    # A wrong answer is reported before anything else can end the run.
    if not result.correct:
        print(line)
        return 1
    if result.invalid:
        print(f"INVALID RUN: {result.invalid}", file=sys.stderr)
        return 3
    if unmeasured:
        print(f"error: not measured: {', '.join(unmeasured)}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
