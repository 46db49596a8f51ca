"""Table 3: cache and memory access latency on AMD48.

A microbenchmark against the hardware model: cache level latencies, and
the memory latency for local / 1-hop / 2-hop accesses with one thread
(uncontended) and with 48 threads hammering a single node (the controller
and the incoming links saturated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.experiments.registry import Scenario, register
from repro.hardware.presets import amd48
from repro.runner import ResultSet
from repro.sim.runspec import RunRequest

#: The paper's measured values (cycles).
PAPER_CACHE = {"L1": 5, "L2": 16, "L3": 48}
PAPER_MEMORY = {
    ("local", 1): 156,
    ("local", 48): 697,
    ("1hop", 1): 276,
    ("1hop", 48): 740,
    ("2hop", 1): 383,
    ("2hop", 48): 863,
}


@dataclass
class Table3Result:
    cache_cycles: Dict[str, float]
    memory_cycles: Dict[Tuple[str, int], float]

    def max_relative_error(self) -> float:
        errors = []
        for name, measured in self.cache_cycles.items():
            errors.append(abs(measured - PAPER_CACHE[name]) / PAPER_CACHE[name])
        for key, measured in self.memory_cycles.items():
            errors.append(abs(measured - PAPER_MEMORY[key]) / PAPER_MEMORY[key])
        return max(errors)


def required_runs(apps: Optional[Sequence[str]] = None) -> List[RunRequest]:
    """Table 3 is analytic: it consumes no engine runs."""
    return []


def assemble(
    results: Optional[ResultSet] = None,
    apps: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> Table3Result:
    """Build Table 3 from the hardware model (``results`` unused)."""
    machine = amd48()
    cache = {
        level.name: level.latency_cycles for level in machine.caches.levels
    }
    # The contended case: 48 threads target one node; the controller and
    # the incoming links run at the queueing cap.
    cap = machine.latency.rho_cap
    memory = {
        ("local", 1): machine.latency.memory_latency_cycles(0, 0.0, 0.0),
        ("local", 48): machine.latency.memory_latency_cycles(0, cap, cap),
        ("1hop", 1): machine.latency.memory_latency_cycles(1, 0.0, 0.0),
        ("1hop", 48): machine.latency.memory_latency_cycles(1, cap, cap),
        ("2hop", 1): machine.latency.memory_latency_cycles(2, 0.0, 0.0),
        ("2hop", 48): machine.latency.memory_latency_cycles(2, cap, cap),
    }
    result = Table3Result(cache_cycles=cache, memory_cycles=memory)
    if verbose:
        rows = [
            [name, f"{cycles:.0f}", str(PAPER_CACHE[name])]
            for name, cycles in cache.items()
        ]
        print(
            format_table(
                ["cache", "model (cyc)", "paper (cyc)"],
                rows,
                title="Table 3a - cache latencies",
            )
        )
        rows = [
            [
                f"{kind} / {threads} thread(s)",
                f"{cycles:.0f}",
                str(PAPER_MEMORY[(kind, threads)]),
            ]
            for (kind, threads), cycles in memory.items()
        ]
        print()
        print(
            format_table(
                ["memory access", "model (cyc)", "paper (cyc)"],
                rows,
                title="Table 3b - memory latencies",
            )
        )
        print(f"\n> max relative error: {result.max_relative_error() * 100:.1f}%")
    return result


SCENARIO = register(
    Scenario(
        name="table3",
        description="Cache and memory latency calibration (microbenchmark)",
        required_runs=required_runs,
        assemble=assemble,
    )
)
