"""Sections 4.2.3-4.2.4: the hypercall batching microbenchmarks."""

from conftest import run_once

from repro.experiments import batching


def test_hypercall_batching(benchmark):
    result = run_once(benchmark, lambda: batching.SCENARIO.run(verbose=False))
    # One empty hypercall per release divides wrmem's performance by ~3.
    assert 2.0 < result.unbatched_slowdown < 4.5
    # 87.5% of a flush is spent invalidating pages, 12.5% sending.
    assert abs(result.invalidation_share - 0.875) < 0.02
    # Partitioning the queue reduces the lock penalty.
    assert result.partitioned_queue_slowdown < result.global_queue_slowdown
    # Batched queues cost almost nothing.
    assert result.partitioned_queue_slowdown < 1.05
