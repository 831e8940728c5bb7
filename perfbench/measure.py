"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(count: int, q: float) -> int:
    """Samples above the nearest-rank ``q``-quantile of ``count`` samples."""
    return count - math.ceil(q * count)


def percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank ``q``-quantile (``0 < q < 1``), or ``None``.

    ``None`` when fewer than :data:`MIN_BEYOND` samples lie beyond it: a
    tail figure resting on a handful of samples is noise, so it is not
    reported at all.
    """
    if not 0 < q < 1:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(median, first quartile, third quartile, (q3 - q1) / median)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else math.inf

