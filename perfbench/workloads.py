"""The four workloads: what each runs, measures and checks.

``join-short`` / ``join-long`` are the analyst's batch self-joins (the
paper's short- versus long-string claim); ``serve-read`` /
``serve-write`` are an application's lookup traffic against ``repro
serve``.  Every workload reports the same end-to-end metrics (see
``README.md`` for what each means per workload) plus a table of the
workload-specific figures.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import hostspeed
import inputs
import loadgen
import measure
import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Launches per run whose median is ``setup_s``.  The first
#: ``SETUPS // 2 + 1`` come before the timed phase and the rest after it,
#: so a slowdown of the host that lasts a few seconds moves only some.
#: Each launch is normalized with the host-speed calibration points taken
#: just before and just after it (see ``hostspeed.py``).
SETUPS = 7
#: Edit threshold of every serve request and of the served index.
SERVE_TAU = 2
#: Share of the measured seconds a serve run spends in the open loop,
#: long enough to hold the samples a tail figure needs (ten beyond it,
#: see :data:`measure.MIN_BEYOND`): 1000 ``search`` requests on
#: ``serve-read`` for ``search_p99_ms``, 200 writes on ``serve-write``
#: for ``write_p95_ms``.
OPEN_SHARE = 0.85
#: Generator lateness (p90, seconds) beyond which a run is invalid: one
#: request in ten written this late means the generator could not keep
#: to its schedule.
MAX_LATE_P90 = 0.1
#: Share of the seconds a traced serve run spends measuring the untraced
#: reference capacity the tracing overhead is computed against.
REFERENCE_SHARE = 0.25
#: Equal windows of the open loop over each of which server CPU time per
#: request is measured; ``cpu_ms_per_op`` is the median window, so a
#: passing slowdown of the host moves one window, not the figure.
CPU_WINDOWS = 10
#: Limit on waiting for any one child or phase, in seconds.
CHILD_TIMEOUT = 150.0


@dataclass(frozen=True)
class JoinWorkload:
    name: str
    kind: str
    size: int
    tau: int
    duplicate_share: float
    max_edits: int
    #: Probe strings whose completeness is checked by brute force.
    sample: int


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    size: int
    shards: int
    #: Open-loop rate, requests per second, fixed (see README.md).
    rate: float
    #: Op kind -> share of requests.
    mix: dict
    pool: int = 4000
    #: Closed-loop requests sent before timing starts (cache warm-up).
    warmup: int = 300
    #: Queries whose final answers are checked against brute force.
    quiescent: int = 16


READ_MIX = {"search": 0.85, "batch": 0.10, "top-k": 0.05}
WRITE_MIX = {"search": 0.68, "batch": 0.08, "top-k": 0.04,
             "insert": 0.10, "delete": 0.10}

WORKLOADS: dict[str, JoinWorkload | ServeWorkload] = {
    workload.name: workload for workload in (
        JoinWorkload("join-short", "author", 6_000, 2, 0.3, 2, sample=16),
        JoinWorkload("join-long", "title", 4_000, 6, 0.2, 6, sample=12),
        ServeWorkload("serve-read", 20_000, 1, rate=60.0, mix=READ_MIX),
        ServeWorkload("serve-write", 20_000, 2, rate=50.0, mix=WRITE_MIX),
    )
}


@dataclass
class Result:
    """One run: correctness, request counts and every figure measured.

    ``figures`` maps a name to ``(value, unit)``; the value is ``None``
    where the run has no sound figure (a layer that did not run, a
    percentile with too few samples beyond it).  ``run.py`` prints them
    all and reports the ones ``BENCHMARK.json`` lists.
    """

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    figures: dict[str, tuple[float | None, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    invalid: str | None = None

    def fail(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
class Workspace:
    """Scratch directory inside the checkout, removed after the run."""

    def __init__(self) -> None:
        self.path = ROOT / ".perfbench_work" / str(os.getpid())
        self.path.mkdir(parents=True, exist_ok=True)

    def write_lines(self, name: str, lines: Sequence[str]) -> str:
        target = self.path / name
        target.write_text("".join(f"{line}\n" for line in lines),
                          encoding="utf-8")
        return str(target)

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _stat_fields(pid: int) -> list[str]:
    """``/proc/<pid>/stat`` after the command name (field 3 onwards)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        return handle.read().rsplit(")", 1)[1].split()


def process_tree(pid: int) -> list[int]:
    """``pid`` and its direct children (a server and its shard workers)."""
    pids = [pid]
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if int(_stat_fields(int(entry))[1]) == pid:
                pids.append(int(entry))
        except OSError:
            continue
    return pids


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time used so far by ``pid`` and its children."""
    ticks = 0
    for member in process_tree(pid):
        try:
            fields = _stat_fields(member)
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """Summed peak resident memory (VmHWM) of ``pid`` and its children."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


def timed_launches(count: int, launch) -> tuple[list[float], list[float]]:
    """Raw and normalized seconds measured by ``count`` calls of ``launch()``.

    Each call is made between two host-speed calibration points and
    normalized with them.
    """
    calibration = hostspeed.Calibration()
    calibration.point()
    seconds = []
    for _ in range(count):
        seconds.append(launch())
        calibration.point()
    return seconds, hostspeed.normalize_between(seconds, calibration)


_ANNOUNCE = re.compile(r"serving \d+ strings on ([\d.]+):(\d+)")


class Server:
    """A ``repro serve`` child process."""

    def __init__(self, command: list[str]) -> None:
        self.started = time.perf_counter()
        # A session of its own, so a server that ignores shutdown can be
        # killed together with its shard workers.
        with hostspeed.on_program_cpu():
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                start_new_session=True)
        self.address: tuple[str, int] | None = None
        self._announced = threading.Event()
        self.stderr: list[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        assert self.process.stderr is not None
        for line in self.process.stderr:
            self.stderr.append(line)
            match = _ANNOUNCE.search(line)
            if match and self.address is None:
                self.address = (match.group(1), int(match.group(2)))
                self._announced.set()
        self._announced.set()

    def wait_ready(self) -> float:
        """Seconds from launch until the server answered ``stats``."""
        if not self._announced.wait(CHILD_TIMEOUT) or self.address is None:
            raise RuntimeError("server did not start: "
                               + "".join(self.stderr[-5:]))
        asyncio.run(self.request({"op": "stats"}))
        return time.perf_counter() - self.started

    async def request(self, payload: dict) -> Any:
        assert self.address is not None
        connection = await loadgen.Connection.open(*self.address)
        try:
            response = await asyncio.wait_for(connection.call(payload),
                                              CHILD_TIMEOUT)
        finally:
            await connection.close()
        if not isinstance(response, dict) or not response.get("ok"):
            raise RuntimeError(f"{payload['op']} failed: {response!r}")
        return response

    def stop(self) -> None:
        """Shut the server down and wait for it (and its workers) to exit."""
        if self.process.poll() is None and self.address is not None:
            try:
                asyncio.run(self.request({"op": "shutdown"}))
            except (OSError, RuntimeError, asyncio.TimeoutError):
                pass
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self.process.pid, signal.SIGKILL)
            self.process.wait()
        self._reader.join(timeout=10)


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
def run_join(workload: JoinWorkload, seed: int, seconds: float, trace: bool,
             workspace: Workspace) -> Result:
    result = Result()
    strings = inputs.generate(workload.kind, workload.size, seed,
                              duplicate_share=workload.duplicate_share,
                              max_edits=workload.max_edits,
                              salt="collection")
    path = workspace.write_lines("input.txt", strings)
    base = [sys.executable, str(HERE / "joinproc.py"), path,
            "--tau", str(workload.tau)]

    setups: list[float] = []
    raw_setups: list[float] = []

    def launch() -> float:
        started = time.perf_counter()
        with hostspeed.on_program_cpu():
            child = subprocess.Popen(base + ["--mode", "setup"], cwd=ROOT,
                                     env=child_env(), stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL, text=True)
        assert child.stdout is not None
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.communicate(timeout=CHILD_TIMEOUT)
        if child.returncode != 0 or not line:
            raise RuntimeError("setup child failed")
        return elapsed

    try:
        raw, normalized = timed_launches(SETUPS // 2 + 1, launch)
        raw_setups += raw
        setups += normalized
    except RuntimeError as error:
        result.fail(str(error))
        return result

    span_path = str(workspace.path / "join-spans.json")
    command = base + ["--mode", "join",
                      "--seconds", str(0.0 if trace else seconds)]
    if trace:
        command += ["--spans", span_path]
    # The parent only waits, so it may share the pinned vCPU meanwhile.
    with hostspeed.on_program_cpu():
        child = subprocess.run(command, cwd=ROOT, env=child_env(),
                               stdin=subprocess.DEVNULL, capture_output=True,
                               text=True, timeout=CHILD_TIMEOUT)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or len(lines) < 2:
        result.attempted, result.failed = 1, 1
        result.fail(f"join child failed: {child.stderr.strip()[-500:]}")
        return result
    try:
        raw, normalized = timed_launches(SETUPS // 2, launch)
        raw_setups += raw
        setups += normalized
    except RuntimeError as error:
        result.fail(str(error))
        return result
    output = json.loads(lines[-1])
    times = output["join_s"]
    result.attempted = len(times) + (1 if trace else 0)

    if not output["consistent"]:
        result.fail("repeated joins returned different pairs")
    sample = random.Random(f"perfbench-sample:{seed}").sample(
        range(len(strings)), workload.sample)
    for problem in oracle.check_join(strings, output["pairs"], workload.tau,
                                     sample):
        result.fail(problem)
    if trace and output["traced_pairs"] != len(output["pairs"]):
        result.fail("traced join returned a different number of pairs")

    # The median repeat, each normalized to the reference host speed with
    # the calibration points on either side of it (see hostspeed.py).
    join_s = statistics.median(output["normalized_join_s"])
    funnel = output["statistics"]
    result.figures = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (output["maxrss_kb"] / 1024, "MB"),
        "ok_rate": (1.0, "fraction"),
        "cpu_ms_per_op": (
            statistics.median(output["normalized_cpu_s"]) * 1000, "ms"),
        "latency_ms": (join_s * 1000, "ms"),
        "join_s": (join_s, "s"),
        "raw_join_median_s": (statistics.median(times), "s"),
        "raw_setup_s": (statistics.median(raw_setups), "s"),
        "host_speed": (output["host_speed"], "ratio"),
        "join_runs": (len(times), "count"),
        "error_rate": (0.0, "fraction"),
        "strings": (len(strings), "count"),
        "pairs": (len(output["pairs"]), "count"),
        "candidates": (funnel["num_candidates"], "count"),
        "verification_s": (funnel["verification_seconds"], "s"),
        "selection_s": (funnel["selection_seconds"], "s"),
    }
    if trace:
        profile = spans.load_profile([span_path])
        result.figures.update(join_layers(profile, output))
        overhead = (output["traced_join_s"] / min(times) - 1) * 100
        result.figures["loadgen.trace_overhead_pct"] = (overhead, "%")
    return result


def core_layers(profile: spans.Profile, funnel: dict[str, float],
                ) -> dict[str, tuple[float | None, str]]:
    """Per-layer figures of the engine layers every workload runs.

    ``funnel`` holds the program's own counters (``JoinStatistics`` field
    names), which repeat exactly for a given input.
    """
    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    selection = ("SubstringSelector.select", "WindowCache.windows")
    windows = profile.calls("WindowCache.windows")
    lookups = profile.calls("SegmentIndex.lookup")
    postings = funnel["num_postings_scanned"]
    candidates = funnel["num_candidates"]
    verifications = funnel["num_verifications"]
    accepted = funnel["num_accepted"]
    return {
        "core.selection.calls": (profile.calls(*selection), "count"),
        "core.selection.self_s": (profile.seconds(*selection), "s"),
        "core.selection.substrings": (funnel["num_selected_substrings"],
                                      "count"),
        "core.selection.window_cache_hit_rate": (
            funnel["num_windows_cache_hits"] / windows if windows else None,
            "fraction"),
        "core.index.lookups": (lookups, "count"),
        "core.index.lookup_s": (profile.seconds("SegmentIndex.lookup"), "s"),
        "core.index.postings_scanned": (postings, "count"),
        "core.index.nonempty_rate": (
            ratio(profile.hits("SegmentIndex.lookup"), lookups), "fraction"),
        "core.index.add_s": (profile.seconds("SegmentIndex.add"), "s"),
        "core.index.remove_s": (
            profile.seconds("SegmentIndex.remove", "SegmentIndex.evict_below"),
            "s"),
        "core.engine.probes": (profile.weight("probe_record", "probe_many"),
                               "count"),
        "core.engine.self_s": (profile.seconds("probe_record", "probe_many"),
                               "s"),
        "core.engine.candidates": (candidates, "count"),
        "core.engine.candidate_rate": (ratio(candidates, postings),
                                       "fraction"),
        "core.engine.fanout": (funnel["num_postings_fanout"], "count"),
        "core.verify.calls": (profile.calls("verify_rows"), "count"),
        "core.verify.self_s": (profile.seconds("verify_rows"), "s"),
        "core.verify.verifications": (verifications, "count"),
        "core.verify.accepted": (accepted, "count"),
        "core.verify.precision": (ratio(accepted, verifications), "fraction"),
        "core.verify.matrix_cells": (funnel["num_matrix_cells"], "count"),
    }


def join_layers(profile: spans.Profile,
                output: dict) -> dict[str, tuple[float | None, str]]:
    layers = core_layers(profile, output["traced_statistics"])
    layers.update({
        "core.join.self_s": (profile.seconds("PassJoin.self_join"), "s"),
        "core.join.pairs": (output["traced_pairs"], "count"),
        "traced_join_s": (output["traced_join_s"], "s"),
        "selection_plus_index_self_s": (
            profile.seconds("SubstringSelector.select", "WindowCache.windows",
                            "SegmentIndex.lookup"), "s"),
    })
    return layers


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
@dataclass
class Traffic:
    """Everything one server's traffic produced."""

    open: loadgen.Outcome
    closed: loadgen.Outcome
    #: Server and shard-worker CPU milliseconds per open-loop request, one
    #: figure per window of the open loop (see :data:`CPU_WINDOWS`).
    cpu_ms_per_op: list[float]
    collection: oracle.Collection
    quiescent: list[tuple[str, Any]]
    stats: dict
    metrics: dict


def serve_inputs(workload: ServeWorkload, seed: int):
    strings = inputs.generate("author", workload.size, seed,
                              duplicate_share=0.3, max_edits=2,
                              salt="collection")
    rng = random.Random(f"perfbench-pool:{seed}")
    fresh = inputs.generate("author", workload.pool, seed,
                            duplicate_share=0.0, max_edits=1, salt="pool")
    pool = [inputs.near_duplicate(rng.choice(strings), rng, 2)
            if rng.random() < 0.5 else fresh[index]
            for index in range(workload.pool)]
    insert_texts = inputs.generate("author", workload.size, seed,
                                   duplicate_share=0.3, max_edits=2,
                                   salt="inserts")
    delete_ids = list(range(workload.size))
    rng.shuffle(delete_ids)
    return strings, pool, insert_texts, delete_ids


def make_mix(workload: ServeWorkload, seed: int, salt: str, pool, inserts,
             deletes, mix: dict | None = None) -> loadgen.Mix:
    return loadgen.Mix(f"{seed}:{salt}", pool, mix or workload.mix,
                       tau=SERVE_TAU, insert_texts=inserts,
                       delete_ids=deletes)


async def drive(server: Server, workload: ServeWorkload, seed: int,
                seconds: float, pool: list[str], inserts, deletes,
                collection: oracle.Collection, *,
                open_phase: bool = True) -> Traffic:
    """Warm up, run the open then closed loop, then read final answers."""
    assert server.address is not None
    connections = [await loadgen.Connection.open(*server.address)
                   for _ in range(min(2, hostspeed.AVAILABLE))]
    insert_iter = iter(inserts)
    delete_iter = iter(deletes)
    try:
        reads = {kind: share for kind, share in workload.mix.items()
                 if kind in ("search", "batch", "top-k")}
        warm_mix = make_mix(workload, seed, "warm", pool, (), (), reads)
        await loadgen.open_loop(
            connections, warm_mix.take(workload.warmup), rate=1e9,
            collection=None, timeout=CHILD_TIMEOUT)
        opened = loadgen.Outcome()
        samples: list[tuple[float, float]] = []
        if open_phase:
            open_mix = make_mix(workload, seed, "open", pool, insert_iter,
                                delete_iter)
            count = max(1, round(workload.rate * seconds * OPEN_SHARE))
            sampler = asyncio.ensure_future(sample_cpu(
                server.process.pid, count / workload.rate / CPU_WINDOWS,
                samples))
            try:
                opened = await loadgen.open_loop(
                    connections, open_mix.take(count), workload.rate,
                    collection, CHILD_TIMEOUT)
            finally:
                sampler.cancel()
            closed_seconds = seconds * (1 - OPEN_SHARE)
        else:
            closed_seconds = seconds
        closed_mix = make_mix(workload, seed, "closed", pool, insert_iter,
                              delete_iter)
        closed = await loadgen.closed_loop(connections, closed_mix,
                                           closed_seconds, collection,
                                           CHILD_TIMEOUT)
        quiescent = await final_answers(connections[0], workload, seed,
                                        pool, collection)
        stats = await connections[0].call({"op": "stats"})
        metrics = await connections[0].call({"op": "metrics"})
    finally:
        for connection in connections:
            await connection.close()
    cpu_ms_per_op = [
        (cpu - cpu_then) * 1000 / ((now - then) * workload.rate)
        for (then, cpu_then), (now, cpu) in zip(samples, samples[1:])]
    return Traffic(opened, closed, cpu_ms_per_op, collection, quiescent, stats,
                   metrics)


async def sample_cpu(pid: int, window: float,
                     samples: list[tuple[float, float]]) -> None:
    """Append ``(time, CPU seconds of pid's tree)`` every ``window`` s."""
    while True:
        samples.append((time.perf_counter(), cpu_seconds(pid)))
        await asyncio.sleep(window)


def quiescent_queries(workload: ServeWorkload, seed: int, pool: list[str],
                      collection: oracle.Collection) -> list[str]:
    """Popular and random pool queries plus texts the client inserted."""
    rng = random.Random(f"perfbench-quiescent:{seed}")
    inserted = [text for record_id, text in sorted(collection.live.items())
                if record_id >= workload.size]
    chosen = pool[:workload.quiescent // 2]
    chosen += rng.sample(pool, workload.quiescent // 4)
    chosen += inserted[:workload.quiescent // 4]
    while len(chosen) < workload.quiescent:
        chosen.append(rng.choice(pool))
    return chosen


async def final_answers(connection: loadgen.Connection,
                        workload: ServeWorkload, seed: int, pool: list[str],
                        collection: oracle.Collection) -> list[tuple[str, Any]]:
    """Send the quiescent queries as search, one search-batch and top-k."""
    queries = quiescent_queries(workload, seed, pool, collection)
    answers: list[tuple[str, Any]] = []
    for query in queries:
        answers.append(("search", await connection.call(
            {"op": "search", "query": query, "tau": SERVE_TAU})))
    answers.append(("search-batch", await connection.call(
        {"op": "search-batch", "queries": queries,
         "tau": SERVE_TAU})))
    for query in queries[:4]:
        answers.append(("top-k", await connection.call(
            {"op": "top-k", "query": query, "k": loadgen.TOP_K})))
    return answers


def check_final_answers(workload: ServeWorkload, seed: int, pool: list[str],
                        traffic: Traffic) -> list[str]:
    """Compare the quiescent answers with brute force over the final set."""
    queries = quiescent_queries(workload, seed, pool, traffic.collection)
    live = traffic.collection.live
    expected = {query: oracle.brute_force_search(live, query, SERVE_TAU)
                for query in set(queries)}
    problems = []

    def compare(label: str, query: str, got: Any,
                want: list[tuple[int, int]]) -> None:
        if not loadgen.match_list(got) or oracle.answer_key(got) != want:
            problems.append(f"{label} {query!r}: got {got!r:.200}, "
                            f"expected {want!r:.200}")

    answers = iter(traffic.quiescent)
    for query in queries:
        _, response = next(answers)
        compare("search", query, (response or {}).get("matches"),
                expected[query])
    _, response = next(answers)
    results = (response or {}).get("results") or [None] * len(queries)
    for query, got in zip(queries, results):
        compare("search-batch", query, got, expected[query])
    for query in queries[:4]:
        _, response = next(answers)
        compare("top-k", query, (response or {}).get("matches"),
                expected[query][:loadgen.TOP_K])
    return problems


def serve_command(workload: ServeWorkload, path: str) -> list[str]:
    command = ["serve", path, "--tau", str(SERVE_TAU), "--port", "0"]
    if workload.shards > 1:
        command += ["--shards", str(workload.shards),
                    "--shard-backend", "process"]
    return command


def latency_figures(outcome: loadgen.Outcome) -> dict[str, float | None]:
    def pick(kind: str, q: float) -> float | None:
        value = measure.percentile(outcome.latencies.get(kind, []), q)
        return None if value is None else value * 1000

    return {"search_p50_ms": pick("search", 0.5),
            "search_p99_ms": pick("search", 0.99),
            "batch_p50_ms": pick("batch", 0.5),
            "topk_p50_ms": pick("top-k", 0.5),
            "write_p50_ms": pick("write", 0.5),
            "write_p95_ms": pick("write", 0.95)}


def run_serve(workload: ServeWorkload, seed: int, seconds: float,
              trace: bool, workspace: Workspace) -> Result:
    result = Result()
    strings, pool, inserts, deletes = serve_inputs(workload, seed)
    path = workspace.write_lines("collection.txt", strings)
    command = [sys.executable, "-m", "repro.cli"] + serve_command(workload,
                                                                  path)
    setups: list[float] = []
    raw_setups: list[float] = []
    server: Server | None = None

    def launch() -> float:
        nonlocal server
        if server is not None:
            server.stop()
        server = Server(command)
        return server.wait_ready()

    try:
        # setup_s is not reported by a traced run: launch only once.
        raw, normalized = timed_launches(1 if trace else SETUPS // 2 + 1,
                                         launch)
        raw_setups += raw
        setups += normalized
        assert server is not None
        base_capacity = None
        if trace:
            # Untraced reference for the tracing overhead: the same
            # closed loop against the plain server, then the traced one.
            reference = asyncio.run(drive(
                server, workload, seed, seconds * REFERENCE_SHARE,
                pool, inserts, deletes, oracle.Collection(strings),
                open_phase=False))
            base_capacity = reference.closed.completed / reference.closed.seconds
            server.stop()
            prefix = str(workspace.path / "spans")
            server = Server([sys.executable, str(HERE / "launcher.py"),
                             prefix] + serve_command(workload, path))
            server.wait_ready()
        traffic = asyncio.run(drive(server, workload, seed, seconds, pool,
                                    inserts, deletes,
                                    oracle.Collection(strings)))
        rss = peak_rss_mb(server.process.pid)
        if not trace:
            raw, normalized = timed_launches(SETUPS // 2, launch)
            raw_setups += raw
            setups += normalized
    finally:
        if server is not None:
            server.stop()

    for problem in traffic.open.problems + traffic.closed.problems:
        result.fail(problem)
    for problem in check_final_answers(workload, seed, pool, traffic):
        result.fail(problem)
    result.attempted = traffic.open.attempted + traffic.closed.attempted
    result.failed = traffic.open.failed + traffic.closed.failed
    ok_rate = 1 - result.failed / result.attempted
    capacity = traffic.closed.completed / traffic.closed.seconds
    late_p99 = measure.percentile(traffic.open.late, 0.99)
    late_p90 = measure.percentile(traffic.open.late, 0.9)
    if late_p90 is not None and late_p90 > MAX_LATE_P90:
        result.invalid = (f"load generator fell behind schedule: late p90 "
                          f"{late_p90 * 1000:.1f} ms")
    latencies = latency_figures(traffic.open)
    cache = traffic.stats.get("cache", {})
    result.figures = {
        "setup_s": (statistics.median(setups), "s"),
        "raw_setup_s": (statistics.median(raw_setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_rate": (ok_rate, "fraction"),
        "cpu_ms_per_op": (
            statistics.median(traffic.cpu_ms_per_op), "ms"),
        "latency_ms": (latencies["search_p50_ms"], "ms"),
        **{name: (value, "ms") for name, value in latencies.items()},
        "capacity_qps": (capacity, "ops/s"),
        "error_rate": (1 - ok_rate, "fraction"),
        "open_loop_requests": (traffic.open.attempted, "count"),
        "open_loop_rate": (workload.rate, "ops/s"),
        "closed_loop_requests": (traffic.closed.attempted, "count"),
        "loadgen.late_p99_ms": (None if late_p99 is None
                                else late_p99 * 1000, "ms"),
        "service.cache.hit_rate": (cache.get("hit_rate"), "fraction"),
    }
    if trace:
        paths = sorted(str(path) for path in workspace.path.glob("spans.*.json"))
        profile = spans.load_profile(paths)
        result.figures.update(serve_layers(
            profile, traffic, base_capacity, capacity,
            baseline_search_ms(strings, pool, workload)))
    return result


def funnel_from_metrics(metrics: dict) -> dict[str, float]:
    """``metrics`` op engine counters under ``JoinStatistics`` names."""
    counters = metrics.get("merged", {}).get("counters", {})
    names = {"num_selected_substrings": "engine_selected_substrings",
             "num_postings_scanned": "engine_postings_scanned",
             "num_candidates": "engine_candidates",
             "num_verifications": "engine_verifications",
             "num_accepted": "engine_accepted",
             "num_matrix_cells": "engine_matrix_cells",
             "num_windows_cache_hits": "engine_windows_cache_hits",
             "num_postings_fanout": "engine_postings_fanout",
             "selection_seconds": "engine_selection_seconds",
             "verification_seconds": "engine_verification_seconds"}
    return {field_name: counters.get(metric, 0)
            for field_name, metric in names.items()}


def baseline_search_ms(strings: list[str], pool: list[str],
                       workload: ServeWorkload) -> float:
    """p50 of one in-process, unsharded ``DynamicSearcher`` search (ms).

    The simplest path that gives the same answers — the baseline every
    serving layer's cost is expressed against.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.service.dynamic import DynamicSearcher

    searcher = DynamicSearcher(strings, max_tau=SERVE_TAU)
    queries = pool[:200]
    searcher.search_many(queries, tau=SERVE_TAU)
    times = []
    for query in queries:
        started = time.perf_counter()
        searcher.search_many([query], tau=SERVE_TAU)
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1000


def serve_layers(profile: spans.Profile, traffic: Traffic,
                 base_capacity: float | None, capacity: float,
                 baseline_ms: float) -> dict[str, tuple[float | None, str]]:
    funnel = funnel_from_metrics(traffic.metrics)
    layers: dict[str, tuple[float | None, str]] = dict(
        core_layers(profile, funnel))

    def ms(values: list[float], q: float) -> float | None:
        value = measure.percentile(values, q)
        return None if value is None else value * 1000

    def ratio(value: float | None) -> float | None:
        return None if value is None else value / baseline_ms

    dynamic_search = profile.all_durations("DynamicSearcher.search_many",
                                           "DynamicSearcher.search_top_k_many")
    dynamic_writes = profile.all_durations("DynamicSearcher.insert",
                                           "DynamicSearcher.delete")
    compactions = profile.all_durations("DynamicSearcher.compact")
    submits = profile.async_durations.get("RequestBatcher.submit", [])
    execute = profile.all_durations("SimilarityService.execute_queries")
    scatter = profile.all_durations("ShardRouter.search_many",
                                    "ShardRouter.search_top_k_many")
    router_writes = profile.all_durations("ShardRouter.insert",
                                          "ShardRouter.delete")
    client_search = traffic.closed.latencies.get("search", [])
    cache = traffic.stats.get("cache", {})
    counters = traffic.metrics.get("merged", {}).get("counters", {})
    errors = sum(value for name, value in counters.items()
                 if name.startswith("errors."))
    submit_p50 = ms(submits, 0.5)
    client_p50 = ms(client_search, 0.5)
    engine_seconds = (funnel["selection_seconds"]
                      + funnel["verification_seconds"])
    layers.update({
        "service.dynamic.search_p50_ms": (ms(dynamic_search, 0.5), "ms"),
        "service.dynamic.write_p50_ms": (ms(dynamic_writes, 0.5), "ms"),
        "service.dynamic.compact_s": (sum(compactions), "s"),
        "service.dynamic.compactions": (len(compactions), "count"),
        "service.cache.hit_rate": (cache.get("hit_rate"), "fraction"),
        "service.cache.invalidations": (cache.get("invalidations"), "count"),
        "service.cache.evictions": (cache.get("evictions"), "count"),
        "service.cache.coalesced": (cache.get("coalesced"), "count"),
        "service.batcher.queue_wait_p50_ms": (ms(profile.queue_waits, 0.5),
                                              "ms"),
        "service.batcher.queue_wait_p99_ms": (ms(profile.queue_waits, 0.99),
                                              "ms"),
        "service.batcher.mean_batch": (
            sum(profile.batch_sizes) / len(profile.batch_sizes)
            if profile.batch_sizes else None, "requests"),
        "service.batcher.batches": (len(profile.batch_sizes), "count"),
        "service.server.execute_p50_ms": (ms(execute, 0.5), "ms"),
        "service.server.transport_p50_ms": (
            None if client_p50 is None or submit_p50 is None
            else client_p50 - submit_p50, "ms"),
        "service.server.errors": (errors, "count"),
        "service.sharding.scatter_p50_ms": (ms(scatter, 0.5), "ms"),
        "service.sharding.scatter_p99_ms": (ms(scatter, 0.99), "ms"),
        "service.sharding.write_p50_ms": (ms(router_writes, 0.5), "ms"),
        "service.sharding.overhead_ratio": (
            profile.seconds("ShardRouter.search_many",
                            "ShardRouter.search_top_k_many",
                            "ShardRouter.insert", "ShardRouter.delete")
            / engine_seconds if scatter and engine_seconds else None,
            "ratio"),
        "baseline.dynamic_search_p50_ms": (baseline_ms, "ms"),
        "ratio.dynamic_search_vs_baseline": (
            ratio(ms(dynamic_search, 0.5)), "ratio"),
        "ratio.scatter_vs_baseline": (ratio(ms(scatter, 0.5)), "ratio"),
        "ratio.execute_vs_baseline": (ratio(ms(execute, 0.5)), "ratio"),
        "ratio.batcher_submit_vs_baseline": (ratio(submit_p50), "ratio"),
        "ratio.client_search_vs_baseline": (ratio(client_p50), "ratio"),
    })
    if base_capacity is not None:
        layers["loadgen.trace_overhead_pct"] = (
            (base_capacity / capacity - 1) * 100, "%")
    return layers


def run(name: str, seed: int, seconds: float, trace: bool,
        workload: JoinWorkload | ServeWorkload | None = None) -> Result:
    """Run one workload (``workload`` overrides the named definition)."""
    workload = workload or WORKLOADS[name]
    workspace = Workspace()
    allowed = os.sched_getaffinity(0)
    hostspeed.pin_client()
    try:
        if isinstance(workload, JoinWorkload):
            return run_join(workload, seed, seconds, trace, workspace)
        return run_serve(workload, seed, seconds, trace, workspace)
    finally:
        os.sched_setaffinity(0, allowed)
        workspace.remove()
