"""Table 2: behaviour of the applications.

Hard-drive rate, intentional context switches and memory footprint. These
are *inputs* to the workload models (transcribed from the paper); the
experiment re-measures what it can from a native run — the effective disk
rate (bytes read / completion time) and the resident footprint — to check
the models stay consistent with their specification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.experiments import common
from repro.experiments.registry import Scenario, register
from repro.hardware.presets import amd48
from repro.runner import ResultSet
from repro.sim.calibration import calibrate_app
from repro.sim.runspec import RunRequest
from repro.workloads.suite import get_app


@dataclass
class Table2Row:
    app: str
    suite: str
    disk_mb_s_spec: float
    disk_mb_s_measured: float
    ctx_switches_k_s: float
    footprint_mb_spec: float
    footprint_mb_modeled: float


@dataclass
class Table2Result:
    rows: List[Table2Row]


def required_runs(apps: Optional[Sequence[str]] = None) -> List[RunRequest]:
    """One native first-touch run per application."""
    return [
        common.linux_request(name, "first-touch") for name in common.app_names(apps)
    ]


def assemble(
    results: ResultSet,
    apps: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> Table2Result:
    """Build Table 2 (spec vs measured) from resolved runs."""
    config = common.default_config()
    machine = amd48(config=config)
    rows: List[Table2Row] = []
    printable: List[List[str]] = []
    for name in common.app_names(apps):
        app = get_app(name)
        result = results.one(common.linux_request(name, "first-touch"))
        op_model = calibrate_app(app, machine)
        total_ops = op_model.ops_per_thread * machine.num_cpus
        bytes_read = op_model.io_bytes_per_op * total_ops
        measured_rate = bytes_read / result.completion_seconds / 1e6
        footprint_pages = config.pages_for_bytes(app.footprint_bytes)
        modeled_mb = footprint_pages * config.page_bytes / (1 << 20)
        row = Table2Row(
            app=name,
            suite=app.suite,
            disk_mb_s_spec=app.disk_mb_s,
            disk_mb_s_measured=measured_rate,
            ctx_switches_k_s=app.ctx_switches_k_s,
            footprint_mb_spec=app.footprint_mb,
            footprint_mb_modeled=modeled_mb,
        )
        rows.append(row)
        printable.append(
            [
                name,
                app.suite,
                f"{row.disk_mb_s_spec:.0f}",
                f"{row.disk_mb_s_measured:.0f}",
                f"{row.ctx_switches_k_s:.1f}",
                f"{row.footprint_mb_spec:.0f}",
                f"{row.footprint_mb_modeled:.0f}",
            ]
        )
    out = Table2Result(rows)
    if verbose:
        print(
            format_table(
                [
                    "app",
                    "suite",
                    "disk MB/s",
                    "measured",
                    "ctx k/s",
                    "mem MB",
                    "modeled MB",
                ],
                printable,
                title="Table 2 - application behaviour (spec vs model)",
            )
        )
    return out


SCENARIO = register(
    Scenario(
        name="table2",
        description="Application behaviour: disk rate, switches, footprint",
        required_runs=required_runs,
        assemble=assemble,
    )
)
