"""Tests of the benchmark's own code (run with ``pytest perfbench``)."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count, q, reported", [
    (19, 0.5, False), (20, 0.5, True),
    (999, 0.99, False), (1000, 0.99, True),
    (199, 0.95, False), (200, 0.95, True),
])
def test_percentile_needs_ten_samples_beyond(count, q, reported):
    values = list(range(count))
    assert (measure.percentile(values, q) is not None) is reported


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    random.Random(0).shuffle(values)
    assert measure.percentile(values, 0.99) == 990
    assert measure.percentile(values, 0.5) == 500


def test_spread_is_quartile_distance_over_median():
    mid, q1, q3, spread = measure.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (mid, q1, q3) == (3.0, 1.5, 4.5)
    assert spread == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Self time on nested spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_and_hot_calls():
    # id, parent, name, start, end, request, weight, hot
    nested = [
        [0, None, "outer", 0.0, 10.0, 0, 1, {"lookup": [3, 1.5, 1]}],
        [1, 0, "middle", 1.0, 4.0, 0, 1, {}],
        [2, 1, "inner", 2.0, 3.0, 0, 1, {"lookup": [1, 0.25, 0]}],
        [3, 0, "middle", 5.0, 6.0, 0, 1, {}],
        [4, None, "outer", 20.0, 21.0, 1, 1, {}],
    ]
    assert spans.self_times(nested) == pytest.approx(
        [10 - 1.5 - 3 - 1, 3 - 1, 1 - 0.25, 1, 1])
    profile = spans.Profile()
    profile.add({"spans": nested, "root_hot": {"lookup": [2, 0.5, 2]},
                 "async_spans": [], "queue_waits": [], "batch_sizes": []})
    assert profile.seconds("outer") == pytest.approx(4.5 + 1)
    assert profile.seconds("lookup") == pytest.approx(1.5 + 0.25 + 0.5)
    assert profile.calls("lookup") == 6
    assert profile.hits("lookup") == 3
    assert profile.calls("middle") == 2


class _Layer:
    def outer(self, tracer_probe):
        tracer_probe.append("outer")
        return self.inner() + self.inner()

    def inner(self):
        return self.hot() + 1

    def hot(self):
        return 1


def test_tracer_records_parents_requests_and_hot_calls():
    tracer = spans.Tracer()
    tracer.wrap(_Layer, "outer", "outer")
    tracer.wrap(_Layer, "inner", "inner")
    tracer.wrap_hot(_Layer, "hot", "hot", hit=lambda result: result)
    try:
        layer = _Layer()
        assert layer.outer([]) == 4
        assert layer.outer([]) == 4
    finally:
        for name in ("outer", "inner", "hot"):
            setattr(_Layer, name, getattr(_Layer, name).__wrapped__)
    recorded = tracer.spans
    assert [span[2] for span in recorded] == ["outer", "inner", "inner"] * 2
    assert [span[1] for span in recorded] == [None, 0, 0, None, 3, 3]
    assert [span[5] for span in recorded] == [0, 0, 0, 1, 1, 1]
    assert recorded[1][7]["hot"][0] == 1 and recorded[1][7]["hot"][2] == 1
    own = spans.self_times(recorded)
    assert all(value >= 0 for value in own)
    assert sum(own) + sum(span[7].get("hot", [0, 0.0])[1]
                          for span in recorded) == pytest.approx(
        sum(span[4] - span[3] for span in recorded if span[1] is None))


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def _full_distance(a: str, b: str) -> int:
    previous = list(range(len(b) + 1))
    for i, char in enumerate(a, 1):
        current = [i]
        for j, other in enumerate(b, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + (char != other)))
        previous = current
    return previous[-1]


def test_bounded_distance_matches_full_dynamic_program():
    rng = random.Random(7)
    for _ in range(3000):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 9)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 9)))
        tau = rng.randint(0, 4)
        assert oracle.bounded_distance(a, b, tau) == min(_full_distance(a, b),
                                                         tau + 1)


def test_collection_applies_acknowledged_inserts_and_deletes():
    collection = oracle.Collection(["vldb", "pvldb", "icde"])
    collection.inserted(3, "sigmod")
    collection.deleted(1, True)
    collection.deleted(7, False)
    assert collection.live == {0: "vldb", 2: "icde", 3: "sigmod"}
    assert oracle.brute_force_search(collection.live, "vldbb", 1) == [(1, 0)]
    with pytest.raises(ValueError):
        collection.inserted(0, "reused id")
    with pytest.raises(ValueError):
        collection.deleted(1, True)  # already gone, server says deleted
    with pytest.raises(ValueError):
        collection.deleted(2, False)  # live, server says not deleted


def test_check_join_reports_wrong_distance_and_missing_pair():
    strings = ["vldb", "pvldb", "vldbx", "icde"]
    right = [(0, 1, 1), (0, 2, 1), (1, 2, 2)]
    assert oracle.check_join(strings, right, 2, range(4)) == []
    problems = oracle.check_join(strings, [(0, 1, 2), (0, 2, 1)], 2,
                                 range(4))
    assert any("reference 1" in problem for problem in problems)
    assert any("(1, 2) missing" in problem or "(2, 1) missing" in problem
               for problem in problems)


# ----------------------------------------------------------------------
# Host-speed normalization
# ----------------------------------------------------------------------
def test_each_time_is_rescaled_by_the_points_around_it():
    calibration = hostspeed.Calibration()
    reference = hostspeed.REFERENCE_S
    # The host at full speed, then at half speed for the second repeat.
    calibration.wall = [[reference] * 3, [reference] * 3,
                        [2 * reference] * 3]
    calibration.cpu = [[reference] * 3, [reference] * 3,
                       [2 * reference] * 3]
    assert hostspeed.normalize_between([1.0, 2.0], calibration) == [
        1.0, pytest.approx(4 / 3)]
    assert calibration.factor(cpu=True) == 1.0
    assert calibration.factor(1) == pytest.approx(2 / 3)


def test_calibration_runs_on_the_program_cpu_and_restores_affinity():
    allowed = os.sched_getaffinity(0)
    calibration = hostspeed.Calibration()
    calibration.point(slices=2)
    assert os.sched_getaffinity(0) == allowed
    assert len(calibration.wall) == 1 and len(calibration.wall[0]) == 2
    assert hostspeed.PROGRAM_CPU in allowed
    assert calibration.factor() > 0


@pytest.mark.parametrize("kind", ["author", "title"])
def test_inputs_deal_the_same_words_for_every_seed(kind):
    def words(seed: int) -> list[str]:
        strings = inputs.generate(kind, 500, seed, duplicate_share=0.0,
                                  max_edits=1)
        return sorted(word for text in strings
                      for word in text.replace(",", " ").replace(".", " ")
                      .split() if len(word) > 1)

    assert words(1) == words(2)
    assert inputs.generate(kind, 50, 1, duplicate_share=0.2, max_edits=2) \
        == inputs.generate(kind, 50, 1, duplicate_share=0.2, max_edits=2)


# ----------------------------------------------------------------------
# Result line and exit code
# ----------------------------------------------------------------------
def _fake_run(monkeypatch, result):
    monkeypatch.setattr(workloads, "run", lambda *args, **kwargs: result)
    monkeypatch.setattr(run.signal, "signal", lambda *args: None)
    return run.main(["--workload", "join-short", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])


def test_wrong_answers_are_reported_before_an_invalid_run(monkeypatch,
                                                          capsys):
    result = workloads.Result(attempted=5, failed=0)
    result.fail("pair (1, 2) missing")
    result.invalid = "load generator fell behind schedule"
    assert _fake_run(monkeypatch, result) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["attempted"] == 5


def test_invalid_run_with_right_answers_prints_no_result(monkeypatch,
                                                         capsys):
    result = workloads.Result(attempted=5, invalid="fell behind")
    result.figures = {metric["name"]: (1.0, metric["unit"])
                      for metric in BENCHMARK["end_to_end"]}
    assert _fake_run(monkeypatch, result) == 3
    assert "correct" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# Tiny runs of every workload
# ----------------------------------------------------------------------
def _tiny(name: str):
    workload = workloads.WORKLOADS[name]
    if isinstance(workload, workloads.JoinWorkload):
        return dataclasses.replace(workload, size=300, sample=5)
    return dataclasses.replace(workload, size=400, pool=120, rate=200.0,
                               warmup=20, quiescent=8)


def _declared(trace: bool) -> set[str]:
    return {metric["name"]
            for metric in BENCHMARK["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_metric(name):
    result = workloads.run(name, seed=3, seconds=2.0, trace=False,
                           workload=_tiny(name))
    assert result.problems == []
    assert result.correct and result.failed == 0 and result.attempted >= 1
    reported = [result.figures[metric][0] for metric in _declared(False)]
    assert all(value is not None and value > 0 for value in reported)


@pytest.mark.parametrize("name", ["join-short", "serve-write"])
def test_tiny_traced_run_reports_every_layer(name):
    result = workloads.run(name, seed=4, seconds=2.0, trace=True,
                           workload=_tiny(name))
    assert result.correct, result.problems
    assert all(result.figures[metric][0] is not None
               for metric in _declared(True))
    if name == "serve-write":
        assert result.figures["service.sharding.scatter_p50_ms"][0] > 0
        assert result.figures["service.batcher.batches"][0] > 0


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "join-short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
