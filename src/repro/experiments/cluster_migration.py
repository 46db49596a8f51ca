"""Cluster scenario: evacuate a host with pre-copy live migration.

Two hosts, two VMs. The placement scheduler spreads the VMs (one per
host); at a fixed epoch the first VM's host is evacuated — the VM
live-migrates to the other host with the write-protect → dirty-fault →
re-copy protocol (:mod:`repro.cluster.migration`) and finishes there,
rebalancing the cluster onto a single host. The baseline is the same
two VMs booted colocated on one host from the start: the figure shows
what the evacuation costs each VM relative to having been consolidated
all along (pre-copy rounds, dirty-set convergence, cutover downtime).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import format_table
from repro.errors import ExperimentError
from repro.experiments import common
from repro.experiments.registry import Scenario, register
from repro.runner import ResultSet
from repro.sim.runspec import RunRequest, VmRequest

#: The default VM pair: the first-named VM is the one that migrates.
DEFAULT_APPS = ("streamcluster", "facesim")


@dataclass
class ClusterMigrationResult:
    """Per-app completion times, cluster vs colocated, plus protocol stats.

    Attributes:
        completion: ``app -> {"colocated": s, "evacuated": s}``.
        worlds: ``app -> label`` of the world each run *finished* on
            (the migrated VM reports the destination host).
        migration: the migrated VM's ``migration.*`` stat dict.
        migrated_app: which app the protocol moved.
    """

    completion: Dict[str, Dict[str, float]]
    worlds: Dict[str, str]
    migration: Dict[str, float]
    migrated_app: str

    def overhead(self, app: str) -> float:
        """Evacuated-over-colocated completion ratio minus one."""
        per_app = self.completion[app]
        return per_app["evacuated"] / per_app["colocated"] - 1.0


def _app_pair(apps: Optional[Sequence[str]]) -> List[str]:
    if apps is None:
        return list(DEFAULT_APPS)
    names = common.app_names(apps)
    if len(names) != 2:
        raise ExperimentError(
            "cluster_migration runs exactly two VMs (the first one "
            f"migrates); got {names!r}"
        )
    return names


def _baseline_request(names: Sequence[str]) -> RunRequest:
    """The colocated baseline: both VMs on one Xen+ host from boot."""
    return common.pair_request(
        [VmRequest(app=name, policy="round-4k", num_vcpus=6) for name in names]
    )


def required_runs(apps: Optional[Sequence[str]] = None) -> List[RunRequest]:
    """One cluster run plus its single-host colocated baseline."""
    names = _app_pair(apps)
    return [common.cluster_request(names), _baseline_request(names)]


def assemble(
    results: ResultSet,
    apps: Optional[Sequence[str]] = None,
    verbose: bool = False,
) -> ClusterMigrationResult:
    """Build the evacuate-and-rebalance comparison from resolved runs."""
    names = _app_pair(apps)
    cluster_results = results.get(common.cluster_request(names))
    baseline_results = results.get(_baseline_request(names))
    by_app = {r.app: r for r in cluster_results}
    base_by_app = {r.app: r for r in baseline_results}
    completion: Dict[str, Dict[str, float]] = {}
    worlds: Dict[str, str] = {}
    for name in names:
        completion[name] = {
            "colocated": base_by_app[name].completion_seconds,
            "evacuated": by_app[name].completion_seconds,
        }
        worlds[name] = by_app[name].environment
    migrated = by_app[names[0]]
    migration = {
        key: value
        for key, value in migrated.stats.items()
        if key.startswith("migration.")
    }
    result = ClusterMigrationResult(
        completion=completion,
        worlds=worlds,
        migration=migration,
        migrated_app=names[0],
    )
    if verbose:
        rows = [
            [
                name,
                f"{completion[name]['colocated']:.2f} s",
                f"{completion[name]['evacuated']:.2f} s",
                f"{result.overhead(name) * 100:+.1f}%",
                worlds[name],
            ]
            for name in names
        ]
        print(
            format_table(
                ["app", "colocated", "evacuated", "overhead", "final world"],
                rows,
                title="Cluster - evacuate-and-rebalance vs colocated boot",
            )
        )
        from repro.analysis.figures import render_grouped_bars

        print()
        print(
            render_grouped_bars(
                completion,
                title="Cluster (completion seconds)",
                width=24,
                unit=" s",
                scale=1.0,
            )
        )
        stats = result.migration
        print(
            f"\n> {result.migrated_app} migrated in "
            f"{stats.get('migration.rounds', 0):.0f} rounds, "
            f"{stats.get('migration.pages_copied', 0):.0f} pages copied, "
            f"{stats.get('migration.dirty_faults', 0):.0f} dirty faults, "
            f"downtime {stats.get('migration.downtime_seconds', 0) * 1e3:.1f} ms"
        )
    return result


SCENARIO = register(
    Scenario(
        name="cluster_migration",
        description="Two-host evacuation via pre-copy live migration",
        required_runs=required_runs,
        assemble=assemble,
    )
)
