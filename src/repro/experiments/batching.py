"""Sections 4.2.3-4.2.4: the cost of page-event hypercalls and batching.

Three claims to reproduce:

* an empty hypercall per page release divides wrmem's performance by ~3
  (one release per 15 us per thread, 48 threads, one serialisation
  point);
* batching (64-entry queues) makes the overhead negligible;
* within a flush, ~87.5% of the time goes to invalidating pages and
  ~12.5% to sending the queue — which is why fancier queue algorithms
  were not worth it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.core.page_queue import lock_service_slowdown
from repro.core.policies.base import PolicyName, PolicySpec
from repro.experiments import common
from repro.experiments.registry import Scenario, register
from repro.hypervisor.hypercalls import HypercallCostModel
from repro.runner import ResultSet
from repro.sim.runspec import RunRequest
from repro.workloads.suite import WRMEM_CHURN


@dataclass
class BatchingResult:
    """Measured batching behaviour."""

    wrmem_batched_seconds: float
    wrmem_unbatched_seconds: float
    invalidation_share: float
    global_queue_slowdown: float
    partitioned_queue_slowdown: float

    @property
    def unbatched_slowdown(self) -> float:
        return self.wrmem_unbatched_seconds / self.wrmem_batched_seconds


def _batched_request() -> RunRequest:
    return common.xen_request("wrmem", PolicySpec(PolicyName.ROUND_4K))


def _unbatched_request() -> RunRequest:
    # Same run with the strawman flag: one hypercall per page release.
    return replace(_batched_request(), unbatched_hypercalls=True)


def required_runs(apps: Optional[Sequence[str]] = None) -> List[RunRequest]:
    """wrmem under batched queues and under the hypercall-per-release mode."""
    return [_batched_request(), _unbatched_request()]


def assemble(
    results: ResultSet,
    apps: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> BatchingResult:
    """Build the batching result from resolved runs (``apps`` ignored)."""
    batched = results.one(_batched_request())
    unbatched = results.one(_unbatched_request())

    costs = HypercallCostModel()
    share = costs.invalidation_share(64)

    # Queue-lock contention: single global queue vs 4 partitions, at the
    # batched per-event service time and wrmem's release rate.
    per_event = costs.flush_cost(64) / 64
    global_q = lock_service_slowdown(WRMEM_CHURN, 48, per_event, 1)
    partitioned = lock_service_slowdown(WRMEM_CHURN, 48, per_event, 4)

    result = BatchingResult(
        wrmem_batched_seconds=batched.completion_seconds,
        wrmem_unbatched_seconds=unbatched.completion_seconds,
        invalidation_share=share,
        global_queue_slowdown=global_q,
        partitioned_queue_slowdown=partitioned,
    )
    if verbose:
        rows = [
            ["wrmem, batched (64x4 queues)", f"{batched.completion_seconds:.1f}s"],
            ["wrmem, hypercall per release", f"{unbatched.completion_seconds:.1f}s"],
            ["slowdown (paper: ~3x)", f"x{result.unbatched_slowdown:.2f}"],
            ["flush time invalidating (paper: 87.5%)", f"{share * 100:.1f}%"],
            ["global-queue slowdown", f"x{global_q:.3f}"],
            ["partitioned-queue slowdown", f"x{partitioned:.3f}"],
        ]
        print(
            format_table(
                ["measurement", "value"],
                rows,
                title="Sections 4.2.3-4.2.4 - hypercall batching",
            )
        )
    return result


SCENARIO = register(
    Scenario(
        name="batching",
        description="Hypercall batching: wrmem strawman vs 64-entry queues",
        required_runs=required_runs,
        assemble=assemble,
    )
)
