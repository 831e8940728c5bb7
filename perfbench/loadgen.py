"""Load generator: open-loop and closed-loop traffic over JSON-lines TCP.

One process, at most ``nproc`` connections.  The server answers the
requests of one connection in order, so each connection keeps a FIFO of
requests in flight and matches every response line to the oldest one.

* **Open loop** (:func:`open_loop`): request ``i`` is due at
  ``start + i / rate`` and is written when due, whether or not earlier
  answers have arrived — independent users.  Latency is timed from the
  due time, so a stall also charges the requests queued behind it, and
  the generator reports how late it wrote each request.
* **Closed loop** (:func:`closed_loop`): each connection sends its next
  request only after the previous answer — callers that wait.  Completed
  requests per second is the capacity.

Every response must be a well-formed ``ok`` answer for its op; anything
else counts as a failure.  Acknowledged inserts and deletes are applied
to an :class:`~oracle.Collection`, so the final collection a correct
server must hold is known exactly.
"""

from __future__ import annotations

import asyncio
import bisect
import collections
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from oracle import Collection


@dataclass(frozen=True)
class Op:
    """One request: its kind (the latency bucket) and wire payload."""

    kind: str
    payload: dict


@dataclass
class Outcome:
    """What a phase observed: latencies by kind, failures, lateness."""

    latencies: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    late: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def record(self, kind: str, seconds: float, ok: bool) -> None:
        self.attempted += 1
        if ok:
            self.latencies.setdefault(kind, []).append(seconds)
        else:
            self.failed += 1

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


#: Requests per deck of op kinds (see :class:`Mix`).
DECK = 100
#: Queries per ``search-batch`` request.
BATCH = 16
#: ``k`` of every ``top-k`` request.
TOP_K = 5
#: Zipf exponent of query popularity over the pool's ranks.
ZIPF = 0.7


class Mix:
    """A seeded stream of requests drawn from a fixed op mix.

    Op kinds are dealt from shuffled decks of :data:`DECK` requests that
    hold each kind in exact proportion, so every stretch of a run has the
    same mix — a run's cost does not swing with how many expensive
    batch requests the dice happened to throw.  Query texts are drawn
    Zipf-skewed from ``pool`` (popular queries repeat, so the cache and
    the batcher's coalescing see real hits).
    Inserts take the next unused text of ``insert_texts``; deletes take
    the next id of a seeded permutation of the initial ids, so no id is
    deleted twice and the stream never depends on server answers.
    """

    def __init__(self, seed: str, pool: Sequence[str], weights: dict[str, float],
                 *, tau: int, insert_texts: Sequence[str],
                 delete_ids: Sequence[int]) -> None:
        self._rng = random.Random(f"perfbench-mix:{seed}")
        self._pool = list(pool)
        self._cumulative = list(itertools.accumulate(
            1.0 / rank ** ZIPF for rank in range(1, len(self._pool) + 1)))
        total = sum(weights.values())
        self._deck_kinds = [kind for kind, weight in weights.items()
                            for _ in range(round(DECK * weight / total))]
        self._deck: list[str] = []
        self._tau = tau
        self._inserts: Iterator[str] = iter(insert_texts)
        self._deletes: Iterator[int] = iter(delete_ids)

    def _query(self) -> str:
        point = self._rng.random() * self._cumulative[-1]
        return self._pool[bisect.bisect_left(self._cumulative, point)]

    def next(self) -> Op:
        if not self._deck:
            self._deck = list(self._deck_kinds)
            self._rng.shuffle(self._deck)
        kind = self._deck.pop()
        if kind == "search":
            return Op(kind, {"op": "search", "query": self._query(),
                             "tau": self._tau})
        if kind == "batch":
            return Op(kind, {"op": "search-batch", "tau": self._tau,
                             "queries": [self._query()
                                         for _ in range(BATCH)]})
        if kind == "top-k":
            return Op(kind, {"op": "top-k", "query": self._query(),
                             "k": TOP_K})
        if kind == "insert":
            return Op("write", {"op": "insert", "text": next(self._inserts)})
        if kind == "delete":
            return Op("write", {"op": "delete", "id": next(self._deletes)})
        raise ValueError(f"unknown op kind {kind!r}")

    def take(self, count: int) -> list[Op]:
        return [self.next() for _ in range(count)]


def match_list(value: Any) -> bool:
    return isinstance(value, list) and all(
        isinstance(match, dict) and isinstance(match.get("id"), int)
        and isinstance(match.get("distance"), int)
        and isinstance(match.get("text"), str) for match in value)


def well_formed(op: Op, response: Any) -> bool:
    """True when ``response`` is a complete ``ok`` answer to ``op``."""
    if not isinstance(response, dict) or response.get("ok") is not True:
        return False
    name = op.payload["op"]
    if name == "search":
        return match_list(response.get("matches"))
    if name == "top-k":
        matches = response.get("matches")
        return match_list(matches) and len(matches) <= op.payload["k"]
    if name == "search-batch":
        results = response.get("results")
        return (isinstance(results, list)
                and len(results) == len(op.payload["queries"])
                and all(match_list(result) for result in results))
    if name == "insert":
        return isinstance(response.get("id"), int)
    if name == "delete":
        return isinstance(response.get("deleted"), bool)
    return True


class Connection:
    """One pipelined JSON-lines connection."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.in_flight: collections.deque = collections.deque()

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port,
                                                       limit=1 << 24)
        return cls(reader, writer)

    def send(self, payload: dict) -> None:
        self.writer.write(json.dumps(payload).encode("utf-8") + b"\n")

    async def receive(self) -> Any:
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        try:
            return json.loads(line)
        except ValueError:
            return None

    async def call(self, payload: dict) -> Any:
        self.send(payload)
        return await self.receive()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def settle(op: Op, response: Any, collection: Collection | None,
           outcome: Outcome) -> bool:
    """Validate one answer and apply an acknowledged mutation."""
    ok = well_formed(op, response)
    if ok and collection is not None:
        try:
            if op.payload["op"] == "insert":
                collection.inserted(response["id"], op.payload["text"])
            elif op.payload["op"] == "delete":
                collection.deleted(op.payload["id"], response["deleted"])
        except ValueError as error:
            outcome.problems.append(str(error))
    return ok


async def open_loop(connections: Sequence[Connection], ops: Sequence[Op],
                    rate: float, collection: Collection | None,
                    timeout: float) -> Outcome:
    """Send ``ops`` at ``rate`` per second, round-robin over connections."""
    outcome = Outcome()
    assigned = [0] * len(connections)
    for position in range(len(ops)):
        assigned[position % len(connections)] += 1

    async def drain(connection: Connection, expected: int) -> None:
        for _ in range(expected):
            response = await connection.receive()
            op, due = connection.in_flight.popleft()
            outcome.record(op.kind, time.perf_counter() - due,
                           settle(op, response, collection, outcome))

    readers = [asyncio.ensure_future(drain(connection, expected))
               for connection, expected in zip(connections, assigned)]
    start = time.perf_counter() + 0.01
    try:
        for position, op in enumerate(ops):
            due = start + position / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            connection = connections[position % len(connections)]
            connection.in_flight.append((op, due))
            connection.send(op.payload)
            outcome.late.append(time.perf_counter() - due)
        await asyncio.wait_for(asyncio.gather(*readers), timeout)
    finally:
        for reader in readers:
            reader.cancel()
    outcome.seconds = time.perf_counter() - start
    return outcome


async def closed_loop(connections: Sequence[Connection], mix: Mix,
                      seconds: float, collection: Collection | None,
                      timeout: float) -> Outcome:
    """Each connection sends its next request when the last one returns."""
    outcome = Outcome()
    start = time.perf_counter()
    end = start + seconds

    async def worker(connection: Connection) -> None:
        while time.perf_counter() < end:
            op = mix.next()
            sent = time.perf_counter()
            response = await connection.call(op.payload)
            outcome.record(op.kind, time.perf_counter() - sent,
                           settle(op, response, collection, outcome))

    await asyncio.wait_for(
        asyncio.gather(*(worker(connection) for connection in connections)),
        seconds + timeout)
    outcome.seconds = time.perf_counter() - start
    return outcome
