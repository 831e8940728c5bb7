"""Coalesce concurrent lookups into one index pass.

Under concurrent load many clients ask similar (often identical) questions
in the same scheduling quantum.  :class:`RequestBatcher` sits between the
asyncio transport and the (synchronous) index: requests submitted before
the event loop's next turn are queued, duplicates are answered by a single
execution, and the whole batch runs in one call into the serving core —
one cache-epoch check, one pass over the index per unique query, and no
interleaved mutations in the middle of a batch.  A lone request never
waits on a timer: the drain runs on the very next loop turn.

The batcher is transport-agnostic: it only needs a callable that maps a
list of unique request keys to a list of results.  That keeps it testable
without sockets, and reusable for any future transport (HTTP, unix domain
sockets, ...).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence, TypeVar

from ..obs.metrics import MetricsRegistry

Key = TypeVar("Key", bound=Hashable)


@dataclass(slots=True)
class BatcherStats:
    """Accounting for one :class:`RequestBatcher`."""

    requests: int = 0
    batches: int = 0
    unique_executed: int = 0

    @property
    def coalesced(self) -> int:
        """Requests answered without their own execution (duplicates)."""
        return self.requests - self.unique_executed

    def as_dict(self) -> dict[str, int]:
        return {"requests": self.requests, "batches": self.batches,
                "unique_executed": self.unique_executed,
                "coalesced": self.coalesced}


class RequestBatcher:
    """Group concurrent :meth:`submit` calls into batched executions.

    The first submit of a batch schedules its drain with
    ``loop.call_soon``: every submit that lands before the loop runs it
    (all queries of one ``asyncio.gather``, other connections' requests
    read in the same loop turn) joins the batch.

    Parameters
    ----------
    execute:
        Synchronous callable mapping a list of **unique** keys to their
        results, in order.  It runs on the event-loop thread (the index is
        pure CPU work with no await points, exactly like the rest of the
        request handler).
    max_batch:
        Batch size that triggers an immediate drain.

    :attr:`metrics` holds the ``stage_seconds.queue_wait`` histogram:
    per request, the time from submit to the start of its drain.

    Examples
    --------
    >>> import asyncio
    >>> batcher = RequestBatcher(lambda keys: [k.upper() for k in keys])
    >>> async def two():
    ...     return await asyncio.gather(batcher.submit("a"), batcher.submit("a"))
    >>> asyncio.run(two())
    ['A', 'A']
    """

    def __init__(self, execute: Callable[[list[Key]], Sequence[object]], *,
                 max_batch: int = 64) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {max_batch!r}")
        self._execute = execute
        self.max_batch = max_batch
        self.stats = BatcherStats()
        self.metrics = MetricsRegistry()
        self._pending: list[tuple[Key, asyncio.Future, float]] = []
        self._drain_scheduled = False

    async def submit(self, key: Key) -> object:
        """Queue one request and await its result.

        Identical keys in the same batch share one execution.  A waiter
        gets its own shallow copy when the result is a plain list;
        results of any other shape are shared between duplicate waiters
        and must be treated as read-only.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((key, future, time.perf_counter()))
        self.stats.requests += 1
        if len(self._pending) >= self.max_batch:
            # The scheduled drain (if any) stays queued: it answers the
            # submits that arrive after this one in the same loop turn.
            self._drain()
        elif not self._drain_scheduled:
            self._drain_scheduled = True
            loop.call_soon(self._scheduled_drain)
        return await future

    def _scheduled_drain(self) -> None:
        self._drain_scheduled = False
        self._drain()

    def _drain(self) -> None:
        batch, self._pending = self._pending, []
        if not batch:
            return
        started = time.perf_counter()
        self.stats.batches += 1
        unique: list[Key] = []
        positions: dict[Key, int] = {}
        for key, _, submitted in batch:
            self.metrics.observe("stage_seconds.queue_wait", started - submitted)
            if key not in positions:
                positions[key] = len(unique)
                unique.append(key)
        try:
            results = self._execute(unique)
        except Exception as error:  # noqa: BLE001 - forwarded to every waiter
            for _, future, _ in batch:
                if not future.cancelled():
                    future.set_exception(error)
            return
        self.stats.unique_executed += len(unique)
        for key, future, _ in batch:
            if future.cancelled():
                continue
            result = results[positions[key]]
            future.set_result(list(result) if isinstance(result, list) else result)
