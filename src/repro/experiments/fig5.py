"""Figure 5: IPI cost repartition, native vs guest mode.

Sending an inter-processor interrupt costs ~0.9 us natively and ~10.9 us
in a virtual machine; the figure decomposes the guest cost into its
delivery steps (guest exit, virtual APIC emulation, vCPU lookup/kick,
re-entry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.errors import ExperimentError
from repro.experiments.registry import Scenario, register
from repro.hypervisor.ipi import IpiModel
from repro.runner import ResultSet
from repro.sim.runspec import RunRequest

#: The paper's measured totals (seconds).
PAPER_TOTALS = {"native": 0.9e-6, "guest": 10.9e-6}


@dataclass
class Fig5Result:
    totals: Dict[str, float]
    components: Dict[str, Dict[str, float]]

    @property
    def guest_native_ratio(self) -> float:
        return self.totals["guest"] / self.totals["native"]


def _reject_apps(apps: Optional[Sequence[str]]) -> None:
    """Raise ExperimentError for any ``apps`` selection.

    There is nothing per-application here, so a selection is a caller
    bug, not something to ignore silently.
    """
    if apps is not None:
        raise ExperimentError(
            "fig5 is a machine microbenchmark; it takes no application "
            f"selection (got {list(apps)!r})"
        )


def required_runs(apps: Optional[Sequence[str]] = None) -> List[RunRequest]:
    """Figure 5 is analytic: it consumes no engine runs."""
    _reject_apps(apps)
    return []


def assemble(
    results: Optional[ResultSet] = None,
    apps: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> Fig5Result:
    """Build Figure 5 from the IPI model (``results`` unused)."""
    _reject_apps(apps)
    model = IpiModel()
    totals = {mode: model.cost(mode) for mode in ("native", "guest")}
    components = {
        mode: {c.name: c.seconds for c in model.components(mode)}
        for mode in ("native", "guest")
    }
    result = Fig5Result(totals=totals, components=components)
    if verbose:
        for mode in ("native", "guest"):
            rows = [
                [name, f"{seconds * 1e6:.2f} us", f"{seconds / totals[mode] * 100:.0f}%"]
                for name, seconds in components[mode].items()
            ]
            rows.append(["total", f"{totals[mode] * 1e6:.2f} us", "100%"])
            print(
                format_table(
                    ["step", "cost", "share"],
                    rows,
                    title=f"Figure 5 - IPI cost repartition ({mode}; "
                    f"paper total {PAPER_TOTALS[mode] * 1e6:.1f} us)",
                )
            )
            print()
        print(f"> guest/native cost ratio: {result.guest_native_ratio:.1f}x")
    return result


SCENARIO = register(
    Scenario(
        name="fig5",
        description="IPI cost repartition, native vs guest (microbenchmark)",
        required_runs=required_runs,
        assemble=assemble,
    )
)
