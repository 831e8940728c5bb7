"""Host-speed calibration: time a fixed piece of work next to the program.

The host gives the benchmark a few vCPUs of a shared machine, and its
speed drifts: a fixed pure-Python loop runs 20-100% slower for minutes
at a time while other tenants are busy, and every CPU-bound figure of a
run taken in such a stretch moves with it.  So the benchmark times a
*calibration slice* next to what it measures — a fixed piece of the
benchmark's own pure-Python work shaped like a Pass-Join probe: look up
the 4-grams of a few probe strings in a gram index over a generated
collection and verify every length-compatible posting with the banded
Levenshtein of ``oracle.py`` — and rescales each measured time to the
speed the host had when :data:`REFERENCE_S` was taken:

    normalized = measured * REFERENCE_S / (median slice time around it)

The slice is the benchmark's code, not the program's, so a change to the
program moves the measured time and not the slice; a change to the
host's speed moves both.  The raw times are printed next to the
normalized ones.

The drift is mostly per vCPU — a neighbour loads the physical core
behind one vCPU, which then runs a fixed loop up to twice as slowly as
the other — so a slice only says something about a process on the same
vCPU.  Every process of the program under test is therefore pinned to
one vCPU, :data:`PROGRAM_CPU`, every slice runs there, and the
benchmark's own client keeps to the others (:func:`pin_client`).
"""

from __future__ import annotations

import contextlib
import os
import random
import statistics
import time
from typing import Iterator, Sequence

import inputs
import oracle

#: Slice time, wall clock and process CPU alike, on the host the
#: reference was taken on (2 vCPUs of an Intel Xeon at 2.0 GHz, CPython
#: 3.11), at about its fastest.  Normalized times are in seconds of that
#: host.
REFERENCE_S = 0.030
#: Slices timed at each calibration point; their median is used.
SLICES = 3

_ALLOWED = sorted(os.sched_getaffinity(0))
#: The vCPU the program under test and every calibration slice run on.
PROGRAM_CPU = _ALLOWED[-1]
#: The vCPUs the benchmark's client (load generator) runs on.
CLIENT_CPUS = set(_ALLOWED[:-1]) or {PROGRAM_CPU}
#: vCPUs the benchmark may use at all (``nproc``).
AVAILABLE = len(_ALLOWED)


@contextlib.contextmanager
def on_program_cpu() -> Iterator[None]:
    """Run the calling process on :data:`PROGRAM_CPU` for the block.

    A child started inside the block inherits the pinning, and so do the
    processes it forks (shard workers).
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {PROGRAM_CPU})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def pin_client() -> None:
    """Keep the calling process (the client) off the program's vCPU."""
    os.sched_setaffinity(0, CLIENT_CPUS)


_COLLECTION = inputs.generate("author", 6000, 0, duplicate_share=0.3,
                              max_edits=2, salt="calibration")
_GRAMS: dict[str, list[int]] = {}
for _number, _text in enumerate(_COLLECTION):
    for _start in range(0, len(_text) - 3, 2):
        _GRAMS.setdefault(_text[_start:_start + 4], []).append(_number)
_PROBES = [_COLLECTION[number] for number in
           random.Random("perfbench-hostspeed").sample(range(6000), 30)]


def _work() -> int:
    total = 0
    for probe in _PROBES:
        for start in range(len(probe) - 3):
            for number in _GRAMS.get(probe[start:start + 4], ()):
                other = _COLLECTION[number]
                if abs(len(other) - len(probe)) <= 2:
                    total += oracle.bounded_distance(probe, other, 2)
    return total


class Calibration:
    """Calibration points taken over one run, each a list of slices."""

    def __init__(self) -> None:
        self.wall: list[list[float]] = []
        self.cpu: list[list[float]] = []

    def point(self, slices: int = SLICES) -> None:
        """Time ``slices`` slices on :data:`PROGRAM_CPU` as one point.

        One untimed slice runs first: whatever ran before (a child's
        launch, a join) has left the caches cold, and that first slice
        would measure them rather than the host.
        """
        with on_program_cpu():
            _work()
            wall, cpu = [], []
            for _ in range(slices):
                began, began_cpu = time.perf_counter(), time.process_time()
                _work()
                wall.append(time.perf_counter() - began)
                cpu.append(time.process_time() - began_cpu)
        self.wall.append(wall)
        self.cpu.append(cpu)

    def factor(self, first: int = 0, last: int | None = None, *,
               cpu: bool = False) -> float:
        """``REFERENCE_S / median slice`` over points ``first`` .. ``last``.

        Multiply a time measured among those points by it to get the
        time at the reference host's speed.
        """
        points = (self.cpu if cpu else self.wall)[first:last]
        median = statistics.median(s for point in points for s in point)
        return REFERENCE_S / median


def normalize_between(times: Sequence[float], calibration: Calibration, *,
                      cpu: bool = False) -> list[float]:
    """Rescale ``times[i]``, measured between points ``i`` and ``i + 1``.

    Each time gets the speed the host had just before and just after it,
    which follows the host's drift more closely than one factor per run.
    """
    return [value * calibration.factor(index, index + 2, cpu=cpu)
            for index, value in enumerate(times)]
