"""Spans around the program's public calls, and per-layer figures from them.

The traced run wraps public functions of each layer (from the
benchmark's side — nothing inside ``src/`` changes) and records one span
per call: name, start, end, parent span and request id.  A span's
*self time* is its duration minus the time its child spans and
aggregated hot calls cover.

Per-substring hot calls (``SegmentIndex.lookup`` runs over a million
times on a long-string join) do not get a span each: the wrapper adds a
count and summed time to the innermost open span instead, which keeps
tracing overhead bounded.

Spans stay in memory and are written as JSON when the traced process
ends (:meth:`Tracer.dump`); :class:`Profile` reduces the spans of
every process to the per-name figures the per-layer metrics come from.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Iterable, Sequence

#: Span record fields, in the order :meth:`Tracer.dump` writes them.
FIELDS = ("id", "parent", "name", "start", "end", "request", "weight", "hot")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[list[Any]] = []
        self._next_request = 0
        #: Hot-call aggregates recorded while no span was open.
        self.root_hot: dict[str, list[float]] = {}
        #: Async spans (``RequestBatcher.submit``): (name, start, end).
        self.async_spans: list[tuple[str, float, float]] = []
        #: Submit times not yet drained by the batcher's execute hook.
        self.pending_submits: list[float] = []
        #: ``id`` of query keys that belong to a batch request.
        self.batch_keys: set[int] = set()
        #: Queue waits measured at each batcher drain, and batch sizes.
        self.queue_waits: list[float] = []
        self.batch_sizes: list[int] = []

    def reset(self) -> None:
        """Forget everything (a forked worker starts from a clean slate)."""
        self.__init__()

    # -- recording -------------------------------------------------------
    def open(self, name: str, weight: int = 1) -> list[Any]:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            request = self._next_request
            self._next_request += 1
        else:
            request = parent[5]
        span = [len(self.spans), None if parent is None else parent[0], name,
                time.perf_counter(), 0.0, request, weight, {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list[Any]) -> None:
        span[4] = time.perf_counter()
        # Tolerate a span closed out of order (an exception unwinding
        # through several wrappers closes them innermost first anyway).
        while self._stack:
            if self._stack.pop() is span:
                break

    def add_hot(self, name: str, seconds: float, hit: int) -> None:
        hot = self._stack[-1][7] if self._stack else self.root_hot
        entry = hot.get(name)
        if entry is None:
            hot[name] = [1, seconds, hit]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += hit

    # -- wrapping --------------------------------------------------------
    def wrap(self, owner: Any, attribute: str, name: str, *,
             weight: Callable[..., int] | None = None) -> None:
        """Record a span around every call of ``owner.attribute``."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(name, 1 if weight is None
                               else weight(*args, **kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)

        setattr(owner, attribute, traced)

    def wrap_hot(self, owner: Any, attribute: str, name: str, *,
                 hit: Callable[[Any], int] | None = None) -> None:
        """Add each call's count and time to the enclosing span."""
        original = getattr(owner, attribute)
        clock = time.perf_counter
        add_hot = self.add_hot

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            result = original(*args, **kwargs)
            add_hot(name, clock() - started,
                    0 if hit is None else hit(result))
            return result

        setattr(owner, attribute, traced)

    def wrap_submit(self, owner: Any, attribute: str, name: str) -> None:
        """Time an awaited ``submit(key)`` from call to result (an async span).

        Keys marked by :meth:`wrap_batch_keys` come from a batch request;
        their spans are named ``<name>.batch`` so single-query round trips
        can be told apart.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        async def traced(batcher: Any, key: Any) -> Any:
            started = time.perf_counter()
            tracer.pending_submits.append(started)
            label = name
            if id(key) in tracer.batch_keys:
                tracer.batch_keys.discard(id(key))
                label = f"{name}.batch"
            try:
                return await original(batcher, key)
            finally:
                tracer.async_spans.append((label, started,
                                           time.perf_counter()))

        setattr(owner, attribute, traced)

    def wrap_batch_keys(self, owner: Any, attribute: str) -> None:
        """Mark the keys a batch request is split into (see wrap_submit).

        A key object stays alive until its own ``submit``, so its ``id``
        cannot be reused by another key before it is unmarked.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            keys = original(*args, **kwargs)
            tracer.batch_keys.update(id(key) for key in keys)
            return keys

        setattr(owner, attribute, traced)

    def wrap_drain(self, owner: Any, attribute: str, name: str) -> None:
        """A span that also closes the queue wait of every pending submit."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(name)
            pending, tracer.pending_submits = tracer.pending_submits, []
            if pending:
                tracer.batch_sizes.append(len(pending))
                tracer.queue_waits.extend(span[3] - submitted
                                          for submitted in pending)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)

        setattr(owner, attribute, traced)

    # -- output ----------------------------------------------------------
    def payload(self) -> dict[str, Any]:
        return {"fields": list(FIELDS), "spans": self.spans,
                "root_hot": self.root_hot,
                "async_spans": self.async_spans,
                "queue_waits": self.queue_waits,
                "batch_sizes": self.batch_sizes}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.payload(), handle)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Self time of each span: duration minus children and hot calls.

    Children are the spans naming it as parent; within one thread they
    nest inside the parent and do not overlap each other, so their
    durations are subtracted directly.
    """
    own = [span[4] - span[3] - sum(entry[1] for entry in span[7].values())
           for span in spans]
    index = {span[0]: position for position, span in enumerate(spans)}
    for span in spans:
        parent = span[1]
        if parent is not None and parent in index:
            own[index[parent]] -= span[4] - span[3]
    return own


# ----------------------------------------------------------------------
# Per-layer figures
# ----------------------------------------------------------------------
class Profile:
    """Spans of one or more processes reduced to per-name figures."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = {}
        self.self_seconds: dict[str, float] = {}
        self.weights: dict[str, int] = {}
        #: name -> [calls, seconds, hits] of hot calls.
        self.hot: dict[str, list[float]] = {}
        self.async_durations: dict[str, list[float]] = {}
        self.queue_waits: list[float] = []
        self.batch_sizes: list[int] = []

    def add(self, payload: dict[str, Any]) -> None:
        spans = payload["spans"]
        for span, own in zip(spans, self_times(spans)):
            name = span[2]
            self.durations.setdefault(name, []).append(span[4] - span[3])
            self.self_seconds[name] = self.self_seconds.get(name, 0.0) + own
            self.weights[name] = self.weights.get(name, 0) + span[6]
        for hot in [span[7] for span in spans] + [payload["root_hot"]]:
            for name, (calls, seconds, hits) in hot.items():
                entry = self.hot.setdefault(name, [0, 0.0, 0])
                entry[0] += calls
                entry[1] += seconds
                entry[2] += hits
        for name, started, ended in payload["async_spans"]:
            self.async_durations.setdefault(name, []).append(ended - started)
        self.queue_waits.extend(payload["queue_waits"])
        self.batch_sizes.extend(payload["batch_sizes"])

    def calls(self, *names: str) -> int:
        return (sum(len(self.durations.get(name, ())) for name in names)
                + sum(self.hot.get(name, (0,))[0] for name in names))

    def weight(self, *names: str) -> int:
        return sum(self.weights.get(name, 0) for name in names)

    def seconds(self, *names: str) -> float:
        """Self seconds of spans plus summed seconds of hot calls."""
        return (sum(self.self_seconds.get(name, 0.0) for name in names)
                + sum(self.hot.get(name, (0, 0.0))[1] for name in names))

    def all_durations(self, *names: str) -> list[float]:
        return [value for name in names
                for value in self.durations.get(name, ())]

    def hits(self, name: str) -> int:
        return self.hot.get(name, (0, 0.0, 0))[2]


def load_profile(paths: Iterable[str]) -> Profile:
    profile = Profile()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            profile.add(json.load(handle))
    return profile


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def install_core(tracer: Tracer) -> None:
    """Wrap the engine layers: join driver, probe, selection, index, verify."""
    from repro.core import engine, index, join, kernel, parallel, selection
    from repro.core import verify

    tracer.wrap(join.PassJoin, "self_join", "PassJoin.self_join")
    # Each driver module calls the name it imported, so each is wrapped.
    for module in (engine, join, kernel, parallel):
        tracer.wrap(module, "probe_record", "probe_record")
    for module in (engine, kernel):
        tracer.wrap(module, "probe_many", "probe_many",
                    weight=lambda queries, **_: len(queries))
    tracer.wrap_hot(selection.SubstringSelector, "select",
                    "SubstringSelector.select")
    tracer.wrap_hot(selection.WindowCache, "windows", "WindowCache.windows")
    tracer.wrap_hot(index.SegmentIndex, "lookup", "SegmentIndex.lookup",
                    hit=lambda postings: 1 if postings else 0)
    for method in ("add", "remove", "evict_below"):
        tracer.wrap_hot(index.SegmentIndex, method, f"SegmentIndex.{method}")
    for name in dir(verify):
        cls = getattr(verify, name)
        if (isinstance(cls, type) and issubclass(cls, verify.BaseVerifier)
                and "verify_rows" in vars(cls)):
            tracer.wrap_hot(cls, "verify_rows", "verify_rows")


def install_service(tracer: Tracer) -> None:
    """Wrap the serving layers: searcher, router, dispatch, batcher."""
    from repro.service import batcher, dynamic, server, sharding

    for method in ("search_many", "search_top_k_many", "insert", "delete"):
        tracer.wrap(dynamic.DynamicSearcher, method,
                    f"DynamicSearcher.{method}")
    # Both the compact op and the automatic compaction a delete triggers
    # run through _compact.
    tracer.wrap(dynamic.DynamicSearcher, "_compact", "DynamicSearcher.compact")
    for method in ("search_many", "search_top_k_many", "insert", "delete"):
        tracer.wrap(sharding.ShardRouter, method, f"ShardRouter.{method}")
    tracer.wrap_drain(server.SimilarityService, "execute_queries",
                      "SimilarityService.execute_queries")
    tracer.wrap(server.SimilarityService, "handle_request",
                "SimilarityService.handle_request")
    tracer.wrap_submit(batcher.RequestBatcher, "submit",
                       "RequestBatcher.submit")
    tracer.wrap_batch_keys(server.SimilarityService, "build_batch_keys")
    tracer.wrap_batch_keys(server.SimilarityService, "build_top_k_batch_keys")
