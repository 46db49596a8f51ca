"""Table 3: cache and memory latencies on AMD48 (microbenchmark)."""

from conftest import run_once

from repro.experiments import table3


def test_table3_latency(benchmark):
    result = run_once(benchmark, lambda: table3.SCENARIO.run(verbose=False))
    # The latency model is calibrated on this table: exact match.
    assert result.max_relative_error() < 0.01
    assert result.cache_cycles == {"L1": 5.0, "L2": 16.0, "L3": 48.0}
    assert result.memory_cycles[("local", 1)] == 156.0
    assert result.memory_cycles[("2hop", 48)] == 863.0
