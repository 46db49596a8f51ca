"""Figure 6: overhead of Linux, Xen and Xen+ relative to LinuxNUMA.

LinuxNUMA = native Linux with the best policy per application and MCS
locks for facesim/streamcluster. The paper's reading: even after removing
the I/O and IPI overheads (Xen+), 20 applications stay above 25% overhead,
14 above 50% and 11 above 100% — the remaining gap is NUMA placement.

This scenario's ``required_runs`` *includes* Figure 2's: the Linux sweep
is a declared shared dependency, so ``run fig2 fig6`` executes it once
and the second scenario hits the store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import format_percent, format_table
from repro.experiments import common, fig2
from repro.experiments.registry import Scenario, register
from repro.runner import ResultSet
from repro.sim.results import relative_overhead
from repro.sim.runspec import RunRequest


@dataclass
class Fig6Result:
    """overheads[app][config] for config in linux / xen / xen+."""

    overheads: Dict[str, Dict[str, float]]

    def count_above(self, config: str, threshold: float) -> int:
        return sum(
            1 for per_app in self.overheads.values() if per_app[config] > threshold
        )


def required_runs(apps: Optional[Sequence[str]] = None) -> List[RunRequest]:
    """Figure 2's Linux sweep, the MCS variants, and both Xen baselines."""
    requests: List[RunRequest] = list(fig2.required_runs(apps))
    for name in common.app_names(apps):
        # The LinuxNUMA base re-runs the sweep with MCS locks for the
        # two lock-bound applications (a no-op set for the others —
        # the runner deduplicates them against Figure 2's requests).
        requests.extend(common.linux_numa_requests(name))
        requests.append(common.xen_stock_request(name))
        requests.append(common.xen_plus_request(name))
    return requests


def assemble(
    results: ResultSet,
    apps: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> Fig6Result:
    """Build Figure 6 from resolved runs."""
    overheads: Dict[str, Dict[str, float]] = {}
    rows: List[List[str]] = []
    for name in common.app_names(apps):
        base, base_label = common.best_linux_numa(results.one, name)
        linux = results.one(common.linux_request(name, "first-touch"))
        xen = results.one(common.xen_stock_request(name))
        xen_plus = results.one(common.xen_plus_request(name))
        per_app = {
            "linux": relative_overhead(linux, base),
            "xen": relative_overhead(xen, base),
            "xen+": relative_overhead(xen_plus, base),
        }
        overheads[name] = per_app
        rows.append(
            [
                name,
                format_percent(per_app["linux"], signed=True),
                format_percent(per_app["xen"], signed=True),
                format_percent(per_app["xen+"], signed=True),
                base_label,
            ]
        )
    result = Fig6Result(overheads)
    if verbose:
        print(
            format_table(
                ["app", "Linux", "Xen", "Xen+", "LinuxNUMA policy"],
                rows,
                title="Figure 6 - overhead vs LinuxNUMA (lower is better)",
            )
        )
        print(
            f"\n> Xen+ overhead above 25%: {result.count_above('xen+', 0.25)} apps, "
            f"above 50%: {result.count_above('xen+', 0.5)}, "
            f"above 100%: {result.count_above('xen+', 1.0)}"
        )
    return result


SCENARIO = register(
    Scenario(
        name="fig6",
        description="Linux, Xen, Xen+ overhead relative to LinuxNUMA",
        required_runs=required_runs,
        assemble=assemble,
        reuses=("fig2",),
    )
)
