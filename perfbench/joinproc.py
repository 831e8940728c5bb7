"""Child process that runs the self-join under test.

    python3 perfbench/joinproc.py INPUT --tau T --mode setup
    python3 perfbench/joinproc.py INPUT --tau T --mode join --seconds S [--spans PATH]

``setup`` imports ``repro``, loads the input file and prints one line —
the parent times it from launch to that line.  ``join`` then repeats
``repro.join(strings, tau, workers=1)`` until ``--seconds`` is used up,
with a host-speed calibration point (``hostspeed.py``) before and after
every repeat, and prints one JSON line with the wall and CPU times, raw
and normalized to the reference host speed, the pairs of the first run,
whether every repeat returned the same pairs, the funnel statistics and
the process's peak resident memory.  With ``--spans`` one more join runs
with the tracing wrappers installed and its spans are written there.

The program under test sees only the input file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input")
    parser.add_argument("--tau", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "join"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import repro
    from repro.datasets.loaders import load_strings

    strings = load_strings(args.input)
    print(json.dumps({"loaded": len(strings)}), flush=True)
    if args.mode == "setup":
        return 0

    from hostspeed import Calibration, normalize_between

    times: list[float] = []
    cpu_times: list[float] = []
    first: list[list[int]] | None = None
    consistent = True
    statistics = None
    calibration = Calibration()
    started = time.perf_counter()
    calibration.point()
    while not times or (time.perf_counter() - started
                        + min(times) <= args.seconds):
        began = time.perf_counter()
        began_cpu = time.process_time()
        result = repro.join(strings, args.tau, workers=1)
        times.append(time.perf_counter() - began)
        cpu_times.append(time.process_time() - began_cpu)
        pairs = sorted([pair.left_id, pair.right_id, pair.distance]
                       for pair in result.pairs)
        if first is None:
            first = pairs
            statistics = result.statistics.as_dict()
        elif pairs != first:
            consistent = False
        calibration.point()

    output = {"join_s": times, "cpu_s": cpu_times,
              "normalized_join_s": normalize_between(times, calibration),
              "normalized_cpu_s": normalize_between(cpu_times, calibration,
                                                    cpu=True),
              "host_speed": calibration.factor(),
              "pairs": first, "consistent": consistent,
              "statistics": statistics,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if args.spans:
        from spans import Tracer, install_core

        tracer = Tracer()
        install_core(tracer)
        began = time.perf_counter()
        result = repro.join(strings, args.tau, workers=1)
        output["traced_join_s"] = time.perf_counter() - began
        output["traced_statistics"] = result.statistics.as_dict()
        output["traced_pairs"] = len(result.pairs)
        tracer.dump(args.spans)
    print(json.dumps(output), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
