"""Tests for the request batcher (coalescing concurrent lookups)."""

import asyncio

import pytest

from repro.service import RequestBatcher


class Recorder:
    """An execute hook that records every batch it is handed."""

    def __init__(self, fail=False):
        self.batches = []
        self.fail = fail

    def __call__(self, keys):
        self.batches.append(list(keys))
        if self.fail:
            raise RuntimeError("index exploded")
        return [f"result:{key}" for key in keys]


def gather(batcher, keys):
    async def run():
        return await asyncio.gather(
            *(batcher.submit(key) for key in keys), return_exceptions=True)
    return asyncio.run(run())


class TestCoalescing:
    def test_concurrent_submits_share_one_batch(self):
        recorder = Recorder()
        batcher = RequestBatcher(recorder, max_batch=64)
        results = gather(batcher, ["a", "b", "a", "a", "b"])
        assert results == ["result:a", "result:b", "result:a", "result:a",
                           "result:b"]
        assert recorder.batches == [["a", "b"]]  # deduped, one execution
        assert batcher.stats.requests == 5
        assert batcher.stats.unique_executed == 2
        assert batcher.stats.coalesced == 3
        assert batcher.stats.batches == 1

    def test_same_turn_submits_coalesce(self):
        recorder = Recorder()
        batcher = RequestBatcher(recorder, max_batch=64)
        results = gather(batcher, ["x", "x", "y"])
        assert results == ["result:x", "result:x", "result:y"]
        assert len(recorder.batches) == 1

    def test_sixteen_key_gather_is_one_drain(self):
        # A search-batch request gathers its queries' submits in one loop
        # turn: they must reach the index as one execution.
        recorder = Recorder()
        batcher = RequestBatcher(recorder, max_batch=64)
        keys = [f"q{i}" for i in range(16)]
        assert gather(batcher, keys) == [f"result:{key}" for key in keys]
        assert recorder.batches == [keys]
        assert batcher.stats.batches == 1

    def test_max_batch_splits_a_gather_into_full_drains(self):
        recorder = Recorder()
        batcher = RequestBatcher(recorder, max_batch=2)
        results = gather(batcher, ["a", "b", "c", "d", "e"])
        assert results == [f"result:{key}" for key in "abcde"]
        # Each full pair drains at once; the remainder on the next turn.
        assert recorder.batches == [["a", "b"], ["c", "d"], ["e"]]
        assert batcher.stats.batches == 3

    def test_lone_submit_schedules_no_timer(self):
        recorder = Recorder()
        batcher = RequestBatcher(recorder)

        def no_timers(*args, **kwargs):
            raise AssertionError("the batcher scheduled a timer")

        async def run():
            loop = asyncio.get_running_loop()
            loop.call_later = no_timers
            loop.call_at = no_timers
            return await batcher.submit("a")

        assert asyncio.run(run()) == "result:a"
        assert recorder.batches == [["a"]]

    def test_sequential_submits_run_in_separate_batches(self):
        recorder = Recorder()
        batcher = RequestBatcher(recorder)

        async def run():
            first = await batcher.submit("a")
            second = await batcher.submit("b")
            return [first, second]

        assert asyncio.run(run()) == ["result:a", "result:b"]
        assert recorder.batches == [["a"], ["b"]]
        assert batcher.stats.batches == 2

    def test_list_results_are_copied_per_waiter(self):
        batcher = RequestBatcher(lambda keys: [[1, 2] for _ in keys])
        first, second = gather(batcher, ["k", "k"])
        first.append(3)
        assert second == [1, 2]

    def test_queue_wait_observed_per_request(self):
        batcher = RequestBatcher(Recorder())
        gather(batcher, ["a", "a", "b"])
        histogram = batcher.metrics.snapshot()["histograms"][
            "stage_seconds.queue_wait"]
        assert histogram["count"] == 3
        # Drained on the next loop turn.
        assert 0 <= histogram["sum"] < 1.0


class TestFailure:
    def test_execute_error_reaches_every_waiter(self):
        recorder = Recorder(fail=True)
        batcher = RequestBatcher(recorder)
        results = gather(batcher, ["a", "b"])
        assert all(isinstance(result, RuntimeError) for result in results)
        assert batcher.stats.unique_executed == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RequestBatcher(lambda keys: [], max_batch=0)
        with pytest.raises(TypeError):
            RequestBatcher(lambda keys: [], window=0.002)
