"""Reference answers the benchmark checks the program against.

Everything here is deliberately independent of the program under test:
a textbook banded Levenshtein distance, brute-force search and top-k
over an explicit collection, and the bookkeeping of which records a
client's acknowledged inserts and deletes leave live.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def bounded_distance(a: str, b: str, tau: int) -> int:
    """Levenshtein distance of ``a`` and ``b`` if it is ``<= tau``, else ``tau + 1``.

    The dynamic program only fills the diagonal band of width
    ``2 * tau + 1`` (a cell further out already costs more than ``tau``)
    and stops as soon as a whole row exceeds ``tau``.
    """
    if abs(len(a) - len(b)) > tau:
        return tau + 1
    if len(a) > len(b):
        a, b = b, a
    big = tau + 1
    n = len(b)
    previous = [j if j <= tau else big for j in range(n + 1)]
    for i in range(1, len(a) + 1):
        char = a[i - 1]
        lo = max(1, i - tau)
        hi = min(n, i + tau)
        current = [big] * (n + 1)
        if i <= tau:
            current[0] = i
        row_min = current[0]
        for j in range(lo, hi + 1):
            cost = previous[j - 1] + (char != b[j - 1])
            if previous[j] + 1 < cost:
                cost = previous[j] + 1
            if current[j - 1] + 1 < cost:
                cost = current[j - 1] + 1
            if cost > big:
                cost = big
            current[j] = cost
            if cost < row_min:
                row_min = cost
        if row_min > tau:
            return big
        previous = current
    return min(previous[n], big)


def brute_force_search(collection: dict[int, str], query: str,
                       tau: int) -> list[tuple[int, int]]:
    """Every ``(distance, id)`` within ``tau`` of ``query``, sorted."""
    length = len(query)
    found = []
    for record_id, text in collection.items():
        if abs(len(text) - length) > tau:
            continue
        distance = bounded_distance(query, text, tau)
        if distance <= tau:
            found.append((distance, record_id))
    found.sort()
    return found


def answer_key(matches: Iterable[dict]) -> list[tuple[int, int]]:
    """A wire answer (list of match objects) as sorted ``(distance, id)``."""
    return [(match["distance"], match["id"]) for match in matches]


class Collection:
    """The records a client expects the server to hold.

    Starts from the initial strings (ids ``0..n-1``, the order the server
    loads them in); :meth:`inserted` and :meth:`deleted` apply only
    *acknowledged* mutations, so the final state is exactly what a
    correct server must answer from.
    """

    def __init__(self, initial: Sequence[str]) -> None:
        self.live: dict[int, str] = dict(enumerate(initial))

    def inserted(self, record_id: int, text: str) -> None:
        if record_id in self.live:
            raise ValueError(f"server reused live id {record_id}")
        self.live[record_id] = text

    def deleted(self, record_id: int, was_live: bool) -> None:
        if was_live != (record_id in self.live):
            raise ValueError(f"delete of id {record_id} answered "
                             f"deleted={was_live}, expected "
                             f"{record_id in self.live}")
        self.live.pop(record_id, None)


def check_join(strings: Sequence[str], pairs: Sequence[tuple[int, int, int]],
               tau: int, sample: Sequence[int]) -> list[str]:
    """Problems with a self-join answer (an empty list means correct).

    Every reported ``(left, right, distance)`` is re-verified with
    :func:`bounded_distance`; then, for each probe id in ``sample``, a
    brute-force scan over the length-filtered collection must find no
    partner the join missed.
    """
    problems: list[str] = []
    reported: dict[int, set[int]] = {}
    seen: set[tuple[int, int]] = set()
    for left, right, distance in pairs:
        key = (min(left, right), max(left, right))
        if left == right or key in seen:
            problems.append(f"pair {key} reported twice or self-paired")
            continue
        seen.add(key)
        true = bounded_distance(strings[left], strings[right], tau)
        if true != distance:
            problems.append(f"pair {key}: reported distance {distance}, "
                            f"reference {true}")
        reported.setdefault(left, set()).add(right)
        reported.setdefault(right, set()).add(left)
    by_length: dict[int, list[int]] = {}
    for record_id, text in enumerate(strings):
        by_length.setdefault(len(text), []).append(record_id)
    for probe in sample:
        text = strings[probe]
        partners = reported.get(probe, set())
        for length in range(len(text) - tau, len(text) + tau + 1):
            for other in by_length.get(length, ()):
                if other == probe or other in partners:
                    continue
                if bounded_distance(text, strings[other], tau) <= tau:
                    problems.append(f"pair ({probe}, {other}) missing")
    return problems
