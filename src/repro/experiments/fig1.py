"""Figure 1: relative overhead of Xen compared to Linux (lower is better).

Stock Xen (round-1G placement, para-virtualised I/O, virtualised IPIs)
against native Linux with its default first-touch policy, for all 29
applications. The paper's headline numbers: overhead up to 700%, above
50% for 15 applications, above 100% for 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import format_percent, format_table
from repro.experiments import common
from repro.experiments.registry import Scenario, register
from repro.runner import ResultSet
from repro.sim.results import relative_overhead
from repro.sim.runspec import RunRequest


@dataclass
class Fig1Result:
    """Per-application overhead of Xen vs Linux."""

    overheads: Dict[str, float]

    def count_above(self, threshold: float) -> int:
        return sum(1 for v in self.overheads.values() if v > threshold)

    @property
    def max_overhead(self) -> float:
        return max(self.overheads.values())


def required_runs(apps: Optional[Sequence[str]] = None) -> List[RunRequest]:
    """Linux first-touch and stock Xen, per application."""
    requests: List[RunRequest] = []
    for name in common.app_names(apps):
        requests.append(common.linux_request(name, "first-touch"))
        requests.append(common.xen_stock_request(name))
    return requests


def assemble(
    results: ResultSet,
    apps: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> Fig1Result:
    """Build Figure 1 from resolved runs."""
    overheads: Dict[str, float] = {}
    rows: List[List[str]] = []
    for name in common.app_names(apps):
        linux = results.one(common.linux_request(name, "first-touch"))
        xen = results.one(common.xen_stock_request(name))
        overhead = relative_overhead(xen, linux)
        overheads[name] = overhead
        rows.append(
            [
                name,
                f"{linux.completion_seconds:.1f}s",
                f"{xen.completion_seconds:.1f}s",
                format_percent(overhead, signed=True),
            ]
        )
    result = Fig1Result(overheads)
    if verbose:
        print(
            format_table(
                ["app", "Linux", "Xen", "overhead"],
                rows,
                title="Figure 1 - relative overhead of Xen vs Linux",
            )
        )
        from repro.analysis.figures import render_bars

        print()
        print(render_bars(overheads, title="Figure 1 (bars)"))
        print(
            f"\n> {result.count_above(0.5)} apps above 50% overhead, "
            f"{result.count_above(1.0)} above 100%, "
            f"max {format_percent(result.max_overhead)}"
        )
    return result


SCENARIO = register(
    Scenario(
        name="fig1",
        description="Overhead of stock Xen vs native Linux, 29 applications",
        required_runs=required_runs,
        assemble=assemble,
    )
)
