"""Figure 2: improvement of the Linux NUMA policies over first-touch.

All four combinations of static and dynamic policies available in Linux —
first-touch, first-touch/Carrefour, round-4K, round-4K/Carrefour — on the
29 applications, relative to the default first-touch (higher is better).
The paper's reading: 17 of 29 applications change by more than 25%
best-vs-worst, 12 by more than 50%, 5 by more than 100%; and each
combination wins for some application.
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

COMBOS = [
    ("first-touch", True, "FT/Carrefour"),
    ("round-4k", False, "Round-4K"),
    ("round-4k", True, "R4K/Carrefour"),
]


@dataclass
class Fig2Result:
    """improvements[app][combo_label] relative to first-touch."""

    improvements: Dict[str, Dict[str, float]]
    best_combo: Dict[str, str]

    def spread(self, app: str) -> float:
        """Best-vs-worst completion-time ratio minus one."""
        values = [0.0] + list(self.improvements[app].values())
        best = max(values)
        worst = min(values)
        # improvement i means T_ft / T = 1 + i; spread = T_worst/T_best - 1.
        return (1.0 + best) / (1.0 + worst) - 1.0

    def count_spread_above(self, threshold: float) -> int:
        return sum(1 for app in self.improvements if self.spread(app) > threshold)


def required_runs(apps: Optional[Sequence[str]] = None) -> List[RunRequest]:
    """The full Linux sweep: first-touch base plus the three variants."""
    requests: List[RunRequest] = []
    for name in common.app_names(apps):
        requests.append(common.linux_request(name, "first-touch"))
        for policy, carrefour, _ in COMBOS:
            requests.append(common.linux_request(name, policy, carrefour))
    return requests


def assemble(
    results: ResultSet,
    apps: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> Fig2Result:
    """Build Figure 2 from resolved runs."""
    improvements: Dict[str, Dict[str, float]] = {}
    best_combo: Dict[str, str] = {}
    rows: List[List[str]] = []
    for name in common.app_names(apps):
        base = results.one(common.linux_request(name, "first-touch"))
        per_app: Dict[str, float] = {}
        best_label, best_value = "First-Touch", 0.0
        for policy, carrefour, label in COMBOS:
            result = results.one(common.linux_request(name, policy, carrefour))
            value = relative_improvement(result, base)
            per_app[label] = value
            if value > best_value:
                best_label, best_value = label, value
        improvements[name] = per_app
        best_combo[name] = best_label
        rows.append(
            [name]
            + [format_percent(per_app[l], signed=True) for _, __, l in COMBOS]
            + [best_label]
        )
    result = Fig2Result(improvements, best_combo)
    if verbose:
        print(
            format_table(
                ["app"] + [l for _, __, l in COMBOS] + ["best"],
                rows,
                title="Figure 2 - Linux NUMA policy improvement vs first-touch",
            )
        )
        print(
            f"\n> spread > 25%: {result.count_spread_above(0.25)} apps, "
            f"> 50%: {result.count_spread_above(0.5)}, "
            f"> 100%: {result.count_spread_above(1.0)}"
        )
    return result


SCENARIO = register(
    Scenario(
        name="fig2",
        description="Linux NUMA policy sweep vs default first-touch",
        required_runs=required_runs,
        assemble=assemble,
    )
)
