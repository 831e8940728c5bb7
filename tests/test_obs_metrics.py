"""Tests for the observability layer: registry, merging, Prometheus, slowlog."""

import json
import logging
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (DEFAULT_LATENCY_BUCKETS, MetricsRegistry,
                               empty_snapshot, funnel_snapshot,
                               merge_snapshots, parse_prometheus,
                               render_prometheus)
from repro.obs.slowlog import (SLOW_QUERY_LOGGER_NAME, JsonLogFormatter,
                               configure_slow_query_logging, log_slow_query)
from repro.types import JoinStatistics


class TestRegistry:
    def test_counter_inc_and_default_amount(self):
        registry = MetricsRegistry()
        registry.inc("requests.search")
        registry.inc("requests.search", 3)
        assert registry.counter_value("requests.search") == 4
        assert registry.counter_value("never.touched") == 0

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("uptime_seconds", 1.5)
        registry.set_gauge("uptime_seconds", 9.0)
        assert registry.snapshot()["gauges"]["uptime_seconds"] == 9.0

    def test_histogram_buckets_and_overflow(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.05, buckets=(0.1, 1.0))
        registry.observe("lat", 0.5, buckets=(0.1, 1.0))
        registry.observe("lat", 100.0, buckets=(0.1, 1.0))
        histogram = registry.snapshot()["histograms"]["lat"]
        assert histogram["buckets"] == [0.1, 1.0]
        assert histogram["counts"] == [1, 1, 1]  # last slot is +Inf
        assert histogram["count"] == 3
        assert histogram["sum"] == pytest.approx(100.55)

    def test_histogram_bounds_fixed_at_creation(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.05, buckets=(0.1,))
        registry.observe("lat", 0.05, buckets=(9.9, 10.0))  # ignored
        assert registry.snapshot()["histograms"]["lat"]["buckets"] == [0.1]

    def test_default_buckets_are_ascending(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)

    def test_counters_with_prefix_strips_prefix(self):
        registry = MetricsRegistry()
        registry.inc("requests.search", 2)
        registry.inc("requests.top-k")
        registry.inc("errors.search")
        assert registry.counters_with_prefix("requests.") == {
            "search": 2, "top-k": 1}

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.set_gauge("b", 2)
        registry.observe("c", 0.01)
        assert json.loads(json.dumps(registry.snapshot())) == registry.snapshot()

    def test_snapshot_from_another_thread_is_self_consistent(self):
        # One recording thread (an acceptor loop) and one scraping thread
        # (a metrics request on another acceptor): every snapshot must
        # hold buckets that add up to its count, and never fail on a
        # histogram created mid-copy.
        registry = MetricsRegistry()
        done = threading.Event()

        def record():
            for index in range(200_000):
                registry.observe(f"lat.{index % 50}", 0.001)
            done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writer = threading.Thread(target=record, daemon=True)
        try:
            writer.start()
            while not done.is_set():
                for histogram in registry.snapshot()["histograms"].values():
                    assert histogram["count"] == sum(histogram["counts"])
        finally:
            sys.setswitchinterval(interval)
            writer.join(timeout=30)
        assert not writer.is_alive()


class TestMergeSnapshots:
    def test_empty_and_identity(self):
        assert merge_snapshots([]) == empty_snapshot()
        registry = MetricsRegistry()
        registry.inc("x", 2)
        registry.observe("h", 0.3)
        assert merge_snapshots([registry.snapshot()]) == registry.snapshot()

    def test_differing_bucket_bounds_rejected(self):
        left = MetricsRegistry()
        left.observe("h", 0.5, buckets=(1.0,))
        right = MetricsRegistry()
        right.observe("h", 0.5, buckets=(2.0,))
        with pytest.raises(ValueError, match="bucket bounds differ"):
            merge_snapshots([left.snapshot(), right.snapshot()])

    @given(st.lists(
        st.tuples(
            st.dictionaries(st.sampled_from(["a", "b", "c"]),
                            st.integers(0, 100), max_size=3),
            st.lists(st.floats(0.0, 10.0, allow_nan=False), max_size=5)),
        max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_merged_equals_sum_of_per_shard_snapshots(self, shards):
        """The router's aggregate is exactly the sum of the fleet's parts."""
        snapshots = []
        for counters, observations in shards:
            registry = MetricsRegistry()
            for name, value in counters.items():
                registry.inc(name, value)
                registry.set_gauge(f"g_{name}", value)
            for value in observations:
                registry.observe("latency", value, buckets=(1.0, 5.0))
            snapshots.append(registry.snapshot())

        merged = merge_snapshots(snapshots)
        for name in ("a", "b", "c"):
            expected = sum(counters.get(name, 0)
                           for counters, _ in shards if name in counters)
            assert merged["counters"].get(name, 0) == expected
            assert merged["gauges"].get(f"g_{name}", 0) == expected
        total_observations = sum(len(obs) for _, obs in shards)
        if total_observations:
            histogram = merged["histograms"]["latency"]
            assert histogram["count"] == total_observations
            assert sum(histogram["counts"]) == total_observations
            assert histogram["sum"] == pytest.approx(
                sum(sum(obs) for _, obs in shards))
        # Associativity: merging pairwise gives the same aggregate
        # (histogram sums compared approximately — float addition is
        # only associative up to the last ulp).
        if len(snapshots) >= 2:
            pairwise = merge_snapshots(
                [merge_snapshots(snapshots[:1]),
                 merge_snapshots(snapshots[1:])])
            assert pairwise["counters"] == merged["counters"]
            assert pairwise["gauges"] == merged["gauges"]
            assert pairwise["histograms"].keys() == merged["histograms"].keys()
            for name, histogram in merged["histograms"].items():
                other = pairwise["histograms"][name]
                assert other["buckets"] == histogram["buckets"]
                assert other["counts"] == histogram["counts"]
                assert other["count"] == histogram["count"]
                assert other["sum"] == pytest.approx(histogram["sum"])


class TestFunnelSnapshot:
    def test_counters_and_gauges(self):
        stats = JoinStatistics(num_selected_substrings=10, num_index_probes=8,
                               num_postings_scanned=6, num_candidates=4,
                               num_verifications=3, num_accepted=2,
                               index_entries=7, index_bytes=99)
        snapshot = funnel_snapshot(stats, memory={"records": 5})
        counters = snapshot["counters"]
        assert counters["engine_selected_substrings"] == 10
        assert counters["engine_postings_scanned"] == 6
        assert counters["engine_accepted"] == 2
        assert "engine_results" not in counters  # zero counters are skipped
        assert snapshot["gauges"]["engine_index_entries"] == 7
        assert snapshot["gauges"]["engine_index_bytes"] == 99
        assert snapshot["gauges"]["index_records"] == 5

    def test_merges_with_service_registry(self):
        registry = MetricsRegistry()
        registry.inc("requests.search", 2)
        merged = merge_snapshots([
            registry.snapshot(),
            funnel_snapshot(JoinStatistics(num_candidates=3))])
        assert merged["counters"] == {"requests.search": 2,
                                      "engine_candidates": 3}


class TestPrometheus:
    def make_snapshot(self):
        registry = MetricsRegistry()
        registry.inc("requests.search-batch", 4)
        registry.inc("errors.top-k")
        registry.set_gauge("uptime_seconds", 12.5)
        for value in (0.0002, 0.004, 7.0):
            registry.observe("latency_seconds.search", value)
        return registry.snapshot()

    def test_render_parses_and_round_trips(self):
        text = render_prometheus(self.make_snapshot())
        families = parse_prometheus(text)
        assert families["passjoin_requests_search_batch"]["type"] == "counter"
        assert families["passjoin_requests_search_batch"]["samples"] == [
            ("passjoin_requests_search_batch", {}, 4.0)]
        assert families["passjoin_uptime_seconds"]["type"] == "gauge"
        histogram = families["passjoin_latency_seconds_search"]
        assert histogram["type"] == "histogram"
        buckets = [(labels["le"], value) for name, labels, value
                   in histogram["samples"] if name.endswith("_bucket")]
        assert buckets[-1] == ("+Inf", 3.0)
        counts = [value for _, value in buckets]
        assert counts == sorted(counts)  # cumulative

    def test_names_are_sanitised(self):
        text = render_prometheus(self.make_snapshot())
        for line in text.splitlines():
            name = line.split()[2] if line.startswith("# TYPE") else \
                line.split("{")[0].split()[0]
            assert " " not in name and "-" not in name and "." not in name

    def test_deterministic_output(self):
        snapshot = self.make_snapshot()
        assert render_prometheus(snapshot) == render_prometheus(snapshot)

    def test_parse_rejects_sample_without_type(self):
        with pytest.raises(ValueError, match="no preceding TYPE"):
            parse_prometheus("orphan_metric 1\n")

    def test_parse_rejects_malformed_type(self):
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_prometheus("# TYPE broken nonsense\nbroken 1\n")

    def test_parse_rejects_non_monotone_histogram(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="0.1"} 5\n'
                'h_bucket{le="+Inf"} 3\n'
                "h_sum 1.0\n"
                "h_count 3\n")
        with pytest.raises(ValueError, match="non-monotone"):
            parse_prometheus(text)

    def test_parse_rejects_inf_count_mismatch(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="0.1"} 1\n'
                'h_bucket{le="+Inf"} 2\n'
                "h_sum 1.0\n"
                "h_count 3\n")
        with pytest.raises(ValueError, match="!= count"):
            parse_prometheus(text)


class TestSlowQueryLog:
    def make_logger(self):
        logger = logging.getLogger(f"{SLOW_QUERY_LOGGER_NAME}.test")
        logger.setLevel(logging.WARNING)
        logger.propagate = False
        records = []

        class _Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        logger.handlers = [_Capture()]
        return logger, records

    def test_event_payload_and_truncation(self):
        logger, records = self.make_logger()
        log_slow_query(op="search", seconds=0.25, threshold_ms=100.0,
                       ok=True, query="q" * 500, logger=logger)
        assert len(records) == 1
        event = records[0].slow_query
        assert event["op"] == "search"
        assert event["latency_ms"] == 250.0
        assert event["threshold_ms"] == 100.0
        assert event["ok"] is True
        assert event["query"] == "q" * 200

    def test_json_formatter_renders_one_object_per_line(self):
        logger, records = self.make_logger()
        log_slow_query(op="top-k", seconds=0.002, threshold_ms=1.0,
                       ok=False, logger=logger)
        line = JsonLogFormatter().format(records[0])
        payload = json.loads(line)
        assert payload["event"] == "slow_query"
        assert payload["op"] == "top-k"
        assert payload["ok"] is False
        assert "query" not in payload
        assert payload["level"] == "WARNING"

    def test_formatter_handles_plain_records(self):
        record = logging.LogRecord("x", logging.WARNING, __file__, 1,
                                   "plain %s", ("message",), None)
        payload = json.loads(JsonLogFormatter().format(record))
        assert payload["message"] == "plain message"

    def test_configure_is_idempotent(self):
        logger = configure_slow_query_logging()
        before = list(logger.handlers)
        assert configure_slow_query_logging() is logger
        assert logger.handlers == before
        marked = [h for h in logger.handlers
                  if getattr(h, "_repro_slow_query", False)]
        assert len(marked) == 1
        logger.handlers = [h for h in logger.handlers if h not in marked]
