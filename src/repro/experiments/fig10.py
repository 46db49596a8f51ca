"""Figure 10: Xen+ and Xen+NUMA relative to LinuxNUMA.

Both sides get their best NUMA policy; the question is how much of the
virtualisation overhead was really NUMA placement. The paper's headline:
with efficient NUMA policies only 4 applications stay degraded above 50%
(vs 14 for Xen+), and the stragglers are the IPI-bound ones (memcached,
cassandra, ua.C) plus psearchy.

This scenario's ``required_runs`` *includes* Figure 7's: the Xen+ policy
sweep is a declared shared dependency, so ``run fig7 fig10`` executes it
once and the second scenario hits the store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import format_percent, format_table
from repro.experiments import common, fig7
from repro.experiments.registry import Scenario, register
from repro.runner import ResultSet
from repro.sim.results import relative_overhead
from repro.sim.runspec import RunRequest


@dataclass
class Fig10Result:
    """overheads[app][config] for config in xen+ / xen+numa."""

    overheads: Dict[str, Dict[str, float]]
    xen_policy: Dict[str, str]

    def count_above(self, config: str, threshold: float) -> int:
        return sum(1 for v in self.overheads.values() if v[config] > threshold)


def required_runs(apps: Optional[Sequence[str]] = None) -> List[RunRequest]:
    """Figure 7's Xen+ sweep plus the LinuxNUMA sweep."""
    requests: List[RunRequest] = list(fig7.required_runs(apps))
    for name in common.app_names(apps):
        requests.extend(common.linux_numa_requests(name))
    return requests


def assemble(
    results: ResultSet,
    apps: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> Fig10Result:
    """Build Figure 10 from resolved runs."""
    overheads: Dict[str, Dict[str, float]] = {}
    xen_policy: Dict[str, str] = {}
    rows: List[List[str]] = []
    for name in common.app_names(apps):
        base, base_label = common.best_linux_numa(results.one, name)
        xen_plus = results.one(common.xen_plus_request(name))
        xen_numa, xen_label = common.best_xen_numa(results.one, name)
        per_app = {
            "xen+": relative_overhead(xen_plus, base),
            "xen+numa": relative_overhead(xen_numa, base),
        }
        overheads[name] = per_app
        xen_policy[name] = xen_label
        rows.append(
            [
                name,
                format_percent(per_app["xen+"], signed=True),
                format_percent(per_app["xen+numa"], signed=True),
                xen_label,
                base_label,
            ]
        )
    result = Fig10Result(overheads, xen_policy)
    if verbose:
        print(
            format_table(
                ["app", "Xen+", "Xen+NUMA", "Xen policy", "Linux policy"],
                rows,
                title="Figure 10 - overhead vs LinuxNUMA (lower is better)",
            )
        )
        print(
            f"\n> degraded above 50%: Xen+ {result.count_above('xen+', 0.5)} apps, "
            f"Xen+NUMA {result.count_above('xen+numa', 0.5)} apps"
        )
    return result


SCENARIO = register(
    Scenario(
        name="fig10",
        description="Best-vs-best: Xen+NUMA against LinuxNUMA",
        required_runs=required_runs,
        assemble=assemble,
        reuses=("fig7",),
    )
)
