#!/usr/bin/env python3
"""CI smoke test: start the similarity server, run queries, assert results.

Exercises the full serving stack end to end over a real TCP socket — the
asyncio server, the JSON-lines protocol, the blocking client, the query
cache, and the dynamic index — in under a second, then repeats the exercise
against a 2-shard server (modulo placement: consecutive ids live on
different shards, so the near-duplicate searches below are genuinely
cross-shard scatter-gathers), requires identical answers, continues
with a live add-shard → query → remove-shard resize under load, runs a
``token-jaccard`` kernel pass (serve → insert → search → explain →
metrics with kernel-tagged funnel counters), and finishes with an
unloaded-latency gate (TCP ``search`` p50 at most 3x in-process
dispatch)::

    PYTHONPATH=src python scripts/service_smoke.py

After each pass it scrapes the ``metrics`` op and asserts the
observability invariants: the engine's filter funnel only shrinks
(accepted <= verifications <= candidates <= postings scanned), every
per-op latency histogram counts exactly as many observations as the
``requests.<op>`` counter, the Prometheus rendering parses as valid
exposition text, and an ``explain`` trace reports the same number of
accepted matches as the equivalent ``search``.  ``--metrics-out FILE``
writes the scraped snapshots as JSON (what CI uploads next to the bench
trajectories).

Exits 0 when every assertion holds, 1 (with a traceback) otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from repro.bench.experiments import DEFAULT_SIZES, build_datasets  # noqa: E402
from repro.cli import main as cli_main  # noqa: E402
from repro.config import ServiceConfig  # noqa: E402
from repro.datasets.corruption import apply_random_edits  # noqa: E402
from repro.obs import parse_prometheus, render_prometheus  # noqa: E402
from repro.service import BackgroundServer, ServiceClient  # noqa: E402

STRINGS = ["vldb", "pvldb", "sigmod", "sigmmod", "icde", "edbt"]
#: Unloaded TCP search p50 may cost at most this multiple of the same
#: request dispatched in process (framing, loopback, the batcher's turn).
UNLOADED_TCP_LIMIT = 3.0


def metrics_smoke(client: ServiceClient,
                  expect_shards: int | None = None) -> dict:
    """Scrape ``metrics``/``explain`` and assert the funnel invariants."""
    payload = client.metrics()
    assert payload["uptime_seconds"] >= 0, payload
    merged = payload["merged"]
    counters = merged["counters"]

    # The filter funnel can only shrink stage over stage, and the queries
    # above found real matches, so the narrow end must be non-empty.
    accepted = counters.get("engine_accepted", 0)
    verified = counters.get("engine_verifications", 0)
    candidates = counters.get("engine_candidates", 0)
    postings = counters.get("engine_postings_scanned", 0)
    assert 0 < accepted <= verified <= candidates <= postings, counters

    # Every request was timed exactly once: each per-op latency histogram
    # holds as many observations as its requests.<op> counter.
    for name, value in sorted(counters.items()):
        if not name.startswith("requests."):
            continue
        op = name[len("requests."):]
        histogram = merged["histograms"].get(f"latency_seconds.{op}")
        assert histogram is not None, (name, sorted(merged["histograms"]))
        assert histogram["count"] == value, (name, value, histogram)

    # The Prometheus rendering must parse as valid exposition text.
    families = parse_prometheus(render_prometheus(merged))
    assert families, "prometheus rendering produced no metric families"

    if expect_shards is not None:
        shards = payload["shards"]
        assert shards["count"] == expect_shards, shards
        assert len(shards["per_shard"]) == expect_shards, shards
        fleet_candidates = sum(
            snapshot["counters"].get("engine_candidates", 0)
            for snapshot in shards["per_shard"])
        assert fleet_candidates == counters.get("engine_candidates", 0), shards

    # An explain trace is one more probe through the same funnel: its
    # accepted count must equal the matches the equivalent search returns.
    report = client.explain("vldb", tau=1)
    matches = client.search("vldb", tau=1)
    assert report["num_matches"] == len(matches), report
    assert report["funnel"]["accepted"] == len(matches), report["funnel"]
    return payload


def batch_smoke(client: ServiceClient, host: str, port: int) -> None:
    """Exercise search-batch over the wire and the CLI ``query --file`` path."""
    queries = ["vldb", "sigmod", "vldb", "nosuchstring"]
    batched = client.search_batch(queries, tau=1)
    assert batched == [client.search(query, tau=1) for query in queries], batched
    assert [m.text for m in batched[0]] == ["vldb", "pvldb"], batched

    # Tombstoned records hold their store rows until compaction purges
    # them; after compacting, the memory figures match the live collection.
    client.compact()
    stats = client.stats()
    assert stats["index"]["records"] == len(STRINGS), stats
    assert stats["index"]["approximate_bytes"] > 0, stats

    with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                     delete=False) as handle:
        handle.write("\n".join(queries) + "\n")
        path = handle.name
    try:
        code = cli_main(["query", "--file", path, "--tau", "1",
                         "--host", host, "--port", str(port)])
        assert code == 0, f"query --file exited {code}"
    finally:
        Path(path).unlink()


def top_k_batch_smoke(client: ServiceClient, host: str, port: int) -> None:
    """Exercise top-k-batch over the wire; assert lockstep-widening parity.

    The second batch uses query strings the query cache has not seen, so
    its answers are computed, not replayed — and computing them must hit
    the engine's persistent window cache (selection windows keyed on the
    index partition threshold survive across batches), which the earlier
    traffic warmed for the same probe lengths.
    """
    queries = ["vldb", "sigmod", "nosuchstring"]
    batched = client.top_k_batch(queries, 2)
    assert batched == [client.top_k(query, 2) for query in queries], batched

    counters = client.metrics()["merged"]["counters"]
    before = counters.get("engine_windows_cache_hits", 0)
    second = ["wldb", "sigmoe"]  # fresh strings, already-probed lengths
    batched = client.top_k_batch(second, 2)
    assert batched == [client.top_k(query, 2) for query in second], batched
    counters = client.metrics()["merged"]["counters"]
    after = counters.get("engine_windows_cache_hits", 0)
    assert after > before, (before, after)

    with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                     delete=False) as handle:
        handle.write("\n".join(queries) + "\n")
        path = handle.name
    try:
        code = cli_main(["query", "--file", path, "--top-k", "2",
                         "--host", host, "--port", str(port)])
        assert code == 0, f"query --file --top-k exited {code}"
    finally:
        Path(path).unlink()


def sharded_smoke() -> dict:
    """Start a 2-shard server; verify a cross-shard query and mutations.

    Pins the in-process thread backend: BackgroundServer hosts the service
    on a second thread, and forking shard workers from a multi-threaded
    process (what ``auto`` would do on a multi-core runner) is exactly the
    fork-with-live-threads pattern CPython warns about.
    """
    config = ServiceConfig(port=0, max_tau=2, shards=2,
                           shard_policy="modulo", shard_backend="thread",
                           migration_batch=2)
    with BackgroundServer(STRINGS, config) as (host, port):
        with ServiceClient(host, port) as client:
            stats = client.stats()
            assert stats["shards"]["count"] == 2, stats
            assert sum(stats["shards"]["sizes"]) == len(STRINGS), stats
            assert len(stats["shards"]["memory"]) == 2, stats
            assert stats["index"]["records"] == sum(
                shard["records"] for shard in stats["shards"]["memory"]), stats

            # Cross-shard scatter-gather: id 0 lives on shard 0, id 1 on
            # shard 1; the merged answer must equal the unsharded one.
            matches = client.search("vldb", tau=1)
            assert [(m.id, m.distance, m.text) for m in matches] == [
                (0, 0, "vldb"), (1, 1, "pvldb")], matches
            assert client.search("vldb", tau=1) == matches  # cached round

            # A cross-shard batch merges to the same per-query answers.
            batched = client.search_batch(["vldb", "icde", "vldb"], tau=1)
            assert batched == [client.search(q, tau=1)
                               for q in ("vldb", "icde", "vldb")], batched

            # Mutations route to the owning shard; answers stay exact.
            new_id = client.insert("vldbx")
            widened = client.search("vldb", tau=1)
            assert (new_id, 1, "vldbx") in [
                (m.id, m.distance, m.text) for m in widened], widened
            assert client.delete(new_id) is True
            assert client.search("vldb", tau=1) == matches
            top = client.top_k("sigmod", 2)
            assert [(m.distance, m.id) for m in top] == [(0, 2), (1, 3)], top

            # Live resharding: grow the fleet, query while the server
            # streams records to the new shard in the background, shrink
            # back — answers must be identical the whole way through.
            grown = client.add_shard()
            assert grown["shards"] == 3, grown
            while client.rebalance_status()["active"]:
                assert client.search("vldb", tau=1) == matches
            stats = client.stats()
            assert stats["shards"]["count"] == 3, stats
            assert sum(stats["shards"]["sizes"]) == len(STRINGS), stats
            assert client.search("vldb", tau=1) == matches
            shrunk = client.remove_shard()
            assert shrunk["shards"] in (2, 3), shrunk  # may still be draining
            while client.rebalance_status()["active"]:
                assert client.search("vldb", tau=1) == matches
            stats = client.stats()
            assert stats["shards"]["count"] == 2, stats
            assert stats["shards"]["rows_migrated"] > 0, stats
            assert client.search("vldb", tau=1) == matches
            assert client.top_k("sigmod", 2) == top

            # Cross-shard top-k-batch: per-shard lockstep widening must
            # merge to the same answers as per-query top-k.
            top_k_batch_smoke(client, host, port)

            # The fleet's funnel counters merge across both shards.
            return metrics_smoke(client, expect_shards=2)


def jaccard_smoke() -> dict:
    """Serve the token-jaccard kernel; insert → search → explain → metrics.

    The same serving stack (server, cache, dynamic index, explain,
    metrics) answers scaled token-set Jaccard queries; the scrape asserts
    the kernel-tagged funnel counters (``engine_*.token-jaccard``) move in
    lockstep with the untagged ones.
    """
    titles = ["similarity joins survey", "string similarity joins",
              "partition based similarity joins", "trie based joins",
              "approximate entity matching"]
    config = ServiceConfig(port=0, max_tau=80, kernel="token-jaccard")
    with BackgroundServer(titles, config) as (host, port):
        with ServiceClient(host, port) as client:
            catalogue = client.kernels()
            assert catalogue["serving"] == "token-jaccard", catalogue
            assert {entry["name"] for entry in catalogue["kernels"]} >= {
                "edit-distance", "token-jaccard"}, catalogue
            assert client.stats()["kernel"] == "token-jaccard"

            # tau=50 <=> J >= 0.5 on token sets; the kernel field asserts
            # which semantics the server must be running.
            matches = client.search("similarity joins", tau=50,
                                    kernel="token-jaccard")
            # J = 2/3 against both 3-token titles (d=34), 1/2 against the
            # 4-token one (d=50); the 2-token overlap titles miss the bar.
            assert [(m.id, m.distance) for m in matches] == [
                (0, 34), (1, 34), (2, 50)], matches
            new_id = client.insert("similarity joins")
            widened = client.search("similarity joins", tau=50)
            assert (new_id, 0) in [(m.id, m.distance) for m in widened], widened

            # A request naming the other kernel must be refused, not
            # answered under the wrong semantics.
            try:
                client.search("x", tau=1, kernel="edit-distance")
            except Exception as error:
                assert "edit-distance" in str(error), error
            else:
                raise AssertionError("kernel mismatch was not rejected")

            # Explain runs one traced probe through the same funnel.
            report = client.explain("similarity joins", tau=50)
            assert report["num_matches"] == len(widened), report

            payload = client.metrics()
            counters = payload["merged"]["counters"]
            accepted = counters.get("engine_accepted", 0)
            verified = counters.get("engine_verifications", 0)
            candidates = counters.get("engine_candidates", 0)
            postings = counters.get("engine_postings_scanned", 0)
            assert 0 < accepted <= verified <= candidates <= postings, counters
            # Every funnel stage is also exported under the kernel tag, and
            # on a single-kernel server the tagged counter IS the total.
            for stage in ("accepted", "verifications", "candidates",
                          "postings_scanned"):
                tagged = counters.get(f"engine_{stage}.token-jaccard")
                assert tagged == counters.get(f"engine_{stage}"), (stage,
                                                                   counters)
            return payload


def unloaded_latency_smoke() -> None:
    """Gate the unloaded TCP ``search`` p50 at 3x in-process dispatch.

    Sends 240 distinct queries (tau 2, 2k author strings) one after
    another over one connection to a server with the query cache off
    (every request is a full index pass), each followed by the same query
    through the same service's in-process ``handle_request``.  A lone
    request must not wait on a timer in the request batcher: a 2 ms
    linger reads 11x here.
    """
    rng = random.Random(11)
    tau = 2
    scale = 2000 / DEFAULT_SIZES["author"]
    strings = build_datasets(scale, ["author"])["author"]
    pool: dict[str, None] = {}
    while len(pool) < 240:
        pool[apply_random_edits(rng.choice(strings), rng.randint(0, tau),
                                rng)] = None
    workload = list(pool)
    config = ServiceConfig(port=0, max_tau=tau, cache_capacity=0)
    background = BackgroundServer(strings, config)
    with background as (host, port):
        service = background.service
        requests = [{"op": "search", "query": query, "tau": tau}
                    for query in workload]
        for request in requests:  # warm the searcher's window cache
            assert service.handle_request(request)["ok"], request
        # Alternate the two paths query by query, so a drift in host
        # speed weighs on both sides alike.
        tcp, in_process = [], []
        with ServiceClient(host, port) as client:
            for request in requests:
                started = time.perf_counter()
                response = client.request(request)
                tcp.append(time.perf_counter() - started)
                assert response["ok"] and not response["cached"], response
                started = time.perf_counter()
                service.handle_request(request)
                in_process.append(time.perf_counter() - started)
    tcp_ms = statistics.median(tcp) * 1000
    in_process_ms = statistics.median(in_process) * 1000
    print(f"unloaded search p50: tcp {tcp_ms:.3f} ms, in-process "
          f"{in_process_ms:.3f} ms ({tcp_ms / in_process_ms:.2f}x, "
          f"limit {UNLOADED_TCP_LIMIT}x)")
    assert tcp_ms <= UNLOADED_TCP_LIMIT * in_process_ms, (
        f"unloaded TCP search p50 {tcp_ms:.3f} ms exceeds "
        f"{UNLOADED_TCP_LIMIT}x in-process {in_process_ms:.3f} ms")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="serving-stack smoke test")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the scraped metrics snapshots (unsharded "
                             "and 2-shard) to FILE as JSON")
    args = parser.parse_args(argv)

    config = ServiceConfig(port=0, max_tau=2)
    with BackgroundServer(STRINGS, config) as (host, port):
        with ServiceClient(host, port) as client:
            # Query 1: threshold search finds the planted near-duplicates.
            matches = client.search("vldb", tau=1)
            assert [(m.id, m.distance, m.text) for m in matches] == [
                (0, 0, "vldb"), (1, 1, "pvldb")], matches

            # Query 2: the identical request must be served by the cache.
            again = client.search("vldb", tau=1)
            assert again == matches, again
            stats = client.stats()
            assert stats["cache"]["hits"] >= 1, stats

            # Query 3: top-k after a mutation (cache must not serve stale).
            new_id = client.insert("sigmoe")
            top = client.top_k("sigmod", 2)
            assert [(m.distance, m.id) for m in top] == [(0, 2), (1, 3)], top
            near = client.search("sigmoe", tau=0)
            assert [(m.id, m.text) for m in near] == [(new_id, "sigmoe")], near
            assert client.delete(new_id) is True

            # Query 4: a search-batch request and the CLI --file batch path
            # must agree with per-query searches.
            batch_smoke(client, host, port)

            # Query 5: top-k-batch must agree with per-query top-k, and
            # its second batch must hit the persistent window cache.
            top_k_batch_smoke(client, host, port)

            # Observability: the stats satellites, the merged metrics
            # snapshot, and the explain trace over everything above.
            stats = client.stats()
            assert stats["uptime_seconds"] >= 0, stats
            assert stats["requests_by_op"].get("search", 0) >= 2, stats
            assert stats["errors"] == 0, stats
            assert stats["cache"]["capacity"] > stats["cache"]["size"], stats
            unsharded_metrics = metrics_smoke(client)
            code = cli_main(["admin", "metrics", "--prometheus",
                             "--host", host, "--port", str(port)])
            assert code == 0, f"admin metrics --prometheus exited {code}"
    sharded_metrics = sharded_smoke()
    jaccard_metrics = jaccard_smoke()
    unloaded_latency_smoke()
    if args.metrics_out:
        out = Path(args.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps({"unsharded": unsharded_metrics,
                        "sharded": sharded_metrics,
                        "token_jaccard": jaccard_metrics},
                       indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"metrics snapshots written to {args.metrics_out}")
    print(f"OK: service smoke passed on {host}:{port} "
          f"({stats['queries_served']}+ queries, "
          f"cache hits={stats['cache']['hits']}, "
          f"index bytes={stats['index']['approximate_bytes']}), "
          f"2-shard cross-shard + batch queries + top-k-batch + live "
          f"add-shard/remove-shard + metrics/explain funnel + "
          f"token-jaccard kernel + unloaded-latency pass verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
