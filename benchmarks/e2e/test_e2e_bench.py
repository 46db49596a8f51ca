"""Tests of the end-to-end benchmark: ``python -m pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import layers  # noqa: E402

sys.path.insert(0, str(harness.SRC))


# ----------------------------------------------------------------------
# The percentile helper


@pytest.mark.parametrize(
    "count, expected",
    [(9, None), (20, 50), (49, 50), (50, 80), (60, 80), (100, 90),
     (200, 95), (500, 95), (999, 95), (1000, 99), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert harness.tail_percentile(count) == expected


def test_percentile_interpolates_and_tail_takes_the_supported_percentile():
    values = [4.0, 1.0, 3.0, 2.0]
    assert harness.percentile(values, 0) == 1.0
    assert harness.percentile(values, 50) == 2.5
    assert harness.percentile(values, 100) == 4.0
    assert harness.tail(list(range(60)), "ms")["label"] == "p80"
    assert harness.tail(list(range(5)), "ms") == harness.timing(list(range(5)), 100, "ms")


# ----------------------------------------------------------------------
# Self-time arithmetic


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)
    tracer.keep_spans = True

    def at(t):
        clock.now = t

    # harness.pass [0, 10] > Runner.resolve [2, 6] > RunStore.get [3, 4],
    # harness.pass > CongestionSolver.congestion [7, 9] (aggregated).
    outer = tracer.enter("harness.pass")
    at(2)
    resolve = tracer.enter("Runner.resolve")
    at(3)
    get = tracer.enter("RunStore.get")
    at(4)
    tracer.exit(get)
    at(6)
    tracer.exit(resolve)
    at(7)
    solve = tracer.enter("CongestionSolver.congestion")
    at(9)
    tracer.exit(solve)
    at(10)
    tracer.exit(outer)

    totals = tracer.snapshot()
    assert totals["harness.pass"] == [1, 10.0, 4.0]
    assert totals["Runner.resolve"] == [1, 4.0, 3.0]
    assert totals["RunStore.get"] == [1, 1.0, 1.0]
    assert totals["CongestionSolver.congestion"] == [1, 2.0, 2.0]
    table = layers.phase_table(totals, 10.0)
    assert table["unattributed"]["self_s"] == 4.0
    assert table["runner"]["share"] == 0.3
    assert sum(row["self_s"] for row in table.values()) == 10.0
    # Aggregated boundaries keep no span; parents point at kept spans.
    assert [(s[0], s[1], s[2], s[3], s[4]) for s in tracer.spans] == [
        (0, None, "harness.pass", 0.0, 10.0),
        (1, 0, "Runner.resolve", 2.0, 6.0),
        (2, 1, "RunStore.get", 3.0, 4.0),
    ]


def test_merged_dumps_add_up_and_subtract_per_phase():
    a = {"totals": {"RunStore.get": [2, 1.0, 0.5]}, "counters": {"runstore.gets": 2}}
    b = {"totals": {"RunStore.get": [1, 2.0, 1.5]}, "counters": {"runstore.gets": 1}}
    merged = layers.merge_dumps([a, b])
    assert merged["totals"]["RunStore.get"] == [3, 3.0, 2.0]
    assert merged["counters"]["runstore.gets"] == 3
    assert layers.subtract(merged["totals"], a["totals"])["RunStore.get"] == [1, 2.0, 1.5]


def test_install_wraps_every_boundary_and_undo_restores_it():
    from repro.runstore.base import RunStore
    from repro.sim.results import RunResult

    get, from_json = RunStore.__dict__["get"], RunResult.__dict__["from_json"]
    undo = layers.install(layers.Tracer())
    try:
        assert RunStore.__dict__["get"] is not get
        assert isinstance(RunResult.__dict__["from_json"], classmethod)
    finally:
        undo()
    assert RunStore.__dict__["get"] is get
    assert RunResult.__dict__["from_json"] is from_json


# ----------------------------------------------------------------------
# The correctness gate


def _one_run():
    from repro.config import SimConfig
    from repro.experiments import common
    from repro.runner.exec import execute_request

    request = common.linux_request("swaptions", config=SimConfig(rng_seed=3))
    return request, harness.results_canonical(execute_request(request))


def test_corrupted_result_trips_the_gate():
    request, produced = _one_run()
    honest = harness.Checks()
    honest.cross_check([(request, produced)], seed=3, tag="t")
    assert (honest.attempted, honest.failed) == (1, 0)

    payload = json.loads(produced)
    payload[0]["completion_seconds"] += 1e-9
    corrupted = harness.canonical(payload)
    gate = harness.Checks()
    gate.cross_check([(request, corrupted)], seed=3, tag="t")
    assert (gate.attempted, gate.failed) == (1, 1)
    assert "differs" in gate.failures[0]


def test_golden_digest_mismatch_fails_only_at_the_golden_seed():
    checks = harness.Checks()
    checks.golden("report", "0" * 64, seed=harness.GOLDEN_SEED, smoke=False)
    checks.golden("report", "0" * 64, seed=7, smoke=False)
    assert (checks.attempted, checks.failed) == (1, 1)


# ----------------------------------------------------------------------
# Seeded inputs


def test_same_seed_gives_same_keys_and_arrival_schedule():
    import serveload

    tracer = layers.NullTracer()
    hot = serveload.hot_set(11, serveload.HOT_APPS, tracer)
    assert [r.cache_key() for r in hot] == [
        r.cache_key() for r in serveload.hot_set(11, serveload.HOT_APPS, tracer)
    ]

    def keyed(schedule):
        return [(due, kind, request.cache_key()) for due, kind, request in schedule]

    first = serveload.open_loop_schedule(11, hot, 5.0)
    assert keyed(first) == keyed(serveload.open_loop_schedule(11, hot, 5.0))
    assert keyed(first) != keyed(serveload.open_loop_schedule(12, hot, 5.0))
    kinds = [kind for _, kind, _ in first]
    assert len(kinds) == 100 and kinds.count("miss") == 15
    hot_keys = {r.cache_key() for r in hot}
    misses = [r.cache_key() for _, kind, r in first if kind == "miss"]
    assert len(set(misses)) == len(misses) and not hot_keys & set(misses)


# ----------------------------------------------------------------------
# The whole benchmark, on tiny inputs


def _declared():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_declared_metric(trace):
    end_to_end, per_layer = _declared()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--smoke", "--seed", "5", "--trace", trace],
        capture_output=True, text=True, timeout=170,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert elapsed < 60
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = per_layer if trace == "1" else end_to_end
    printed = {tuple(line.split()[:2]) for line in lines[:-1]}
    for workload in ("report", "consolidation_batched", "serve_open"):
        for name in names:
            assert (workload, name) in printed
            assert f"{workload}.{name}" in result["metrics"]
