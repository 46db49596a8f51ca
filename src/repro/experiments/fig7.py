"""Figure 7: improvement of each NUMA policy in Xen+, single VM.

One 48-vCPU virtual machine, vCPUs pinned to pCPUs and threads to vCPUs;
each policy's completion time relative to Xen+ (round-1G). The paper's
headline: 9 applications improve by more than 100%, cg.C's completion
time divides by 6; and replacing round-1G by the best other policy never
costs more than 10%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import format_percent, format_table
from repro.experiments import common
from repro.experiments.registry import Scenario, register
from repro.runner import ResultSet
from repro.sim.results import relative_improvement
from repro.sim.runspec import RunRequest


@dataclass
class Fig7Result:
    """improvements[app][policy_label] relative to Xen+ (round-1G)."""

    improvements: Dict[str, Dict[str, float]]
    best_policy: Dict[str, str]

    def best_improvement(self, app: str) -> float:
        return max([0.0] + list(self.improvements[app].values()))

    def count_best_above(self, threshold: float) -> int:
        return sum(
            1 for app in self.improvements if self.best_improvement(app) > threshold
        )

    def max_degradation_replacing_round1g(self) -> float:
        """Worst loss if round-1G is replaced by the best other policy."""
        worst = 0.0
        for app in self.improvements:
            best_other = self.best_improvement(app)
            if best_other < 0.0:
                worst = max(worst, -best_other)
        return worst


def required_runs(apps: Optional[Sequence[str]] = None) -> List[RunRequest]:
    """The Xen+ policy sweep: round-1G base plus the four alternatives."""
    requests: List[RunRequest] = []
    for name in common.app_names(apps):
        requests.append(common.xen_plus_request(name))
        for spec in common.XEN_POLICIES:
            requests.append(common.xen_request(name, spec))
    return requests


def assemble(
    results: ResultSet,
    apps: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> Fig7Result:
    """Build Figure 7 from resolved runs."""
    improvements: Dict[str, Dict[str, float]] = {}
    best_policy: Dict[str, str] = {}
    rows: List[List[str]] = []
    labels = [spec.label for spec in common.XEN_POLICIES]
    for name in common.app_names(apps):
        base = results.one(common.xen_plus_request(name))
        per_app: Dict[str, float] = {}
        best_label, best_value = "Round-1G", 0.0
        for spec in common.XEN_POLICIES:
            result = results.one(common.xen_request(name, spec))
            value = relative_improvement(result, base)
            per_app[spec.label] = value
            if value > best_value:
                best_label, best_value = spec.label, value
        improvements[name] = per_app
        best_policy[name] = best_label
        rows.append(
            [name]
            + [format_percent(per_app[l], signed=True) for l in labels]
            + [best_label]
        )
    result = Fig7Result(improvements, best_policy)
    if verbose:
        print(
            format_table(
                ["app"] + labels + ["best"],
                rows,
                title="Figure 7 - NUMA policy improvement vs Xen+ (round-1G)",
            )
        )
        from repro.analysis.figures import render_grouped_bars

        print()
        print(
            render_grouped_bars(
                improvements, title="Figure 7 (bars)", width=24
            )
        )
        print(
            f"\n> best policy improves > 100% for "
            f"{result.count_best_above(1.0)} apps; max degradation when "
            f"replacing round-1G: "
            f"{format_percent(result.max_degradation_replacing_round1g())}"
        )
    return result


SCENARIO = register(
    Scenario(
        name="fig7",
        description="Xen+ NUMA policy sweep vs the round-1G default",
        required_runs=required_runs,
        assemble=assemble,
    )
)
