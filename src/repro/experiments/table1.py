"""Table 1: effect of the static NUMA policies in Linux.

For each application: the load imbalance (relative standard deviation of
per-node access counts) and the interconnect load (average utilisation of
the most loaded link) under first-touch and round-4K in native Linux, plus
the resulting low/moderate/high classification. The table cannot be
measured while Carrefour runs (it monopolises the hardware counters) — our
counters model enforces the same exclusivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.metrics import classify_imbalance
from repro.analysis.tables import format_table
from repro.experiments import common
from repro.experiments.registry import Scenario, register
from repro.runner import ResultSet
from repro.sim.runspec import RunRequest
from repro.workloads.suite import get_app


@dataclass
class Table1Row:
    """Measured metrics for one application."""

    app: str
    ft_imbalance: float
    r4k_imbalance: float
    ft_interconnect: float
    r4k_interconnect: float
    measured_class: str
    paper_class: str


@dataclass
class Table1Result:
    rows: List[Table1Row]

    def class_matches(self) -> int:
        return sum(1 for r in self.rows if r.measured_class == r.paper_class)


def required_runs(apps: Optional[Sequence[str]] = None) -> List[RunRequest]:
    """First-touch and round-4K native runs, per application."""
    requests: List[RunRequest] = []
    for name in common.app_names(apps):
        requests.append(common.linux_request(name, "first-touch"))
        requests.append(common.linux_request(name, "round-4k"))
    return requests


def assemble(
    results: ResultSet,
    apps: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> Table1Result:
    """Build Table 1 from resolved runs."""
    rows: List[Table1Row] = []
    printable: List[List[str]] = []
    for name in common.app_names(apps):
        app = get_app(name)
        ft = results.one(common.linux_request(name, "first-touch"))
        r4k = results.one(common.linux_request(name, "round-4k"))
        row = Table1Row(
            app=name,
            ft_imbalance=ft.mean_imbalance,
            r4k_imbalance=r4k.mean_imbalance,
            ft_interconnect=ft.mean_max_link_rho,
            r4k_interconnect=r4k.mean_max_link_rho,
            measured_class=classify_imbalance(ft.mean_imbalance),
            paper_class=app.imbalance_class,
        )
        rows.append(row)
        printable.append(
            [
                name,
                f"{row.ft_imbalance * 100:.0f}%",
                f"{row.r4k_imbalance * 100:.0f}%",
                f"{row.ft_interconnect * 100:.0f}%",
                f"{row.r4k_interconnect * 100:.0f}%",
                row.measured_class,
                row.paper_class,
            ]
        )
    result = Table1Result(rows)
    if verbose:
        print(
            format_table(
                [
                    "app",
                    "imb(FT)",
                    "imb(R4K)",
                    "link(FT)",
                    "link(R4K)",
                    "class",
                    "paper",
                ],
                printable,
                title="Table 1 - static NUMA policies in Linux (measured)",
            )
        )
        print(
            f"\n> imbalance class matches the paper for "
            f"{result.class_matches()}/{len(result.rows)} applications"
        )
    return result


SCENARIO = register(
    Scenario(
        name="table1",
        description="Imbalance and interconnect load of the static policies",
        required_runs=required_runs,
        assemble=assemble,
    )
)
