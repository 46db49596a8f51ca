"""Table 4: best NUMA policies, per application, in Linux and Xen+.

Runs the exhaustive sweeps (Figure 2's Linux combinations, Figure 7's
Xen+ policies plus round-1G) and reports the measured winner next to the
paper's. Exact per-application agreement is not expected — near-ties flip
easily — but the *family* of the winner (locality-preserving first-touch
vs balancing round-4K) should usually match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.experiments import common
from repro.experiments.registry import Scenario, register
from repro.runner import ResultSet
from repro.sim.runspec import RunRequest
from repro.workloads.suite import get_app


def _family(label: str) -> str:
    """Collapse a policy label to its static family."""
    if "First-Touch" in label:
        return "first-touch"
    if "Round-1G" in label:
        return "round-1g"
    return "round-4k"


@dataclass
class Table4Row:
    app: str
    best_linux: str
    paper_linux: str
    best_xen: str
    paper_xen: str


@dataclass
class Table4Result:
    rows: List[Table4Row]

    def linux_family_matches(self) -> int:
        return sum(
            1
            for r in self.rows
            if _family(r.best_linux) == _family(r.paper_linux)
        )

    def xen_family_matches(self) -> int:
        return sum(
            1 for r in self.rows if _family(r.best_xen) == _family(r.paper_xen)
        )


def required_runs(apps: Optional[Sequence[str]] = None) -> List[RunRequest]:
    """Both full sweeps (LinuxNUMA and Xen+NUMA), per application."""
    requests: List[RunRequest] = []
    for name in common.app_names(apps):
        requests.extend(common.linux_numa_requests(name))
        requests.extend(common.xen_numa_requests(name))
    return requests


def assemble(
    results: ResultSet,
    apps: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> Table4Result:
    """Build Table 4 from resolved runs."""
    rows: List[Table4Row] = []
    printable: List[List[str]] = []
    for name in common.app_names(apps):
        app = get_app(name)
        _, linux_label = common.best_linux_numa(results.one, name)
        _, xen_label = common.best_xen_numa(results.one, name)
        rows.append(
            Table4Row(
                app=name,
                best_linux=linux_label,
                paper_linux=app.best_linux,
                best_xen=xen_label,
                paper_xen=app.best_xen,
            )
        )
        printable.append(
            [name, linux_label, app.best_linux, xen_label, app.best_xen]
        )
    result = Table4Result(rows)
    if verbose:
        print(
            format_table(
                ["app", "LinuxNUMA", "paper", "Xen+NUMA", "paper"],
                printable,
                title="Table 4 - best NUMA policies (measured vs paper)",
            )
        )
        n = len(result.rows)
        print(
            f"\n> family agreement: Linux {result.linux_family_matches()}/{n}, "
            f"Xen+ {result.xen_family_matches()}/{n}"
        )
    return result


SCENARIO = register(
    Scenario(
        name="table4",
        description="Measured best policies vs the paper's, both systems",
        required_runs=required_runs,
        assemble=assemble,
    )
)
