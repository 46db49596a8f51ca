"""A cluster: N hosts advancing in lockstep on one simulated clock.

Each host is a :class:`~repro.sim.host.Host` (its own machine, heap,
hypervisor, sanitizer) carrying one :class:`~repro.sim.environment.World`
held by its own :class:`~repro.sim.engine.EpochStepper`. The hosts are
the lanes of one group: every epoch, one
:func:`~repro.sim.engine.step_group` call steps every host with work
for epoch *e* before any host sees epoch *e+1*, so cross-host protocols
(live migration) observe a coherent wall of simulated time; hosts with
nothing to run idle-step to keep their epoch counters aligned. Per-host
results are bit-identical to stepping each host alone.

VM placement goes through the :class:`PlacementScheduler` (multi-NUMA
free space + projected congestion, seeded tie-breaks); migrations are
scheduled by epoch and executed by :class:`LiveMigration`. At cutover
the migrated run *moves between worlds*: its remaining epochs are
simulated by the destination host's stepper against the destination
machine, and its result reports the destination world's label.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.cluster.migration import LiveMigration, MigrationPlan
from repro.cluster.placement import PlacementScheduler
from repro.errors import ExperimentError
from repro.sim.engine import (
    DEFAULT_MAX_EPOCHS,
    EpochStepper,
    _check_compatible,
    step_group,
)
from repro.sim.environment import VmSpec, World, XenEnvironment
from repro.sim.host import Host
from repro.sim.results import RunResult
from repro.util import stable_hash


class Cluster:
    """N hosts, a placement scheduler, and in-flight migrations.

    Args:
        environment: the Xen environment template every host boots from
            (same features, same machine factory, same config).
        num_hosts: hosts to boot.
    """

    def __init__(self, environment: XenEnvironment, num_hosts: int):
        if num_hosts < 1:
            raise ExperimentError("a cluster needs at least one host")
        self.environment = environment
        self.config = environment.config
        self.hosts: List[Host] = [
            environment.build_host(host_id) for host_id in range(num_hosts)
        ]
        seed = self.config.rng_seed
        self.scheduler = PlacementScheduler(
            np.random.default_rng(
                seed + stable_hash("cluster.placement") % 10000
            )
        )
        self.worlds: Dict[int, World] = {}
        self.steppers: Dict[int, EpochStepper] = {}
        self.migrations: List[LiveMigration] = []
        self._plans: List[MigrationPlan] = []
        self.epoch = 0
        self.now = 0.0

    # ------------------------------------------------------------------
    # Placement and deployment

    def deploy(self, vms: Sequence[VmSpec]) -> None:
        """Place each VM on its best host and build every host's world.

        Every host gets a world — empty ones included — so an evacuated
        or initially idle host can still receive migrations.
        """
        if self.worlds:
            raise ExperimentError("cluster already deployed")
        assignment: Dict[int, List[VmSpec]] = {
            host.host_id: [] for host in self.hosts
        }
        reserved: Dict[int, int] = {host.host_id: 0 for host in self.hosts}
        for spec in vms:
            num_cpus = self.hosts[0].machine.num_cpus
            pages = self.environment.vm_memory_pages(spec, num_cpus)
            host = self.scheduler.choose_host(
                self.hosts,
                spec.num_vcpus or num_cpus,
                pages,
                reserved=reserved,
            )
            assignment[host.host_id].append(spec)
            reserved[host.host_id] += pages
        for host in self.hosts:
            label = f"{self.environment.label}@h{host.host_id}"
            self.worlds[host.host_id] = self.environment.setup_on(
                host, assignment[host.host_id], label=label
            )

    def world_of_run(self, run) -> World:
        for world in self.worlds.values():
            if run in world.runs:
                return world
        raise ExperimentError(f"run {run.app.name} is on no host")

    def find_run(self, app_name: str):
        """The (unique) run of ``app_name`` across all hosts."""
        matches = [
            run
            for host in self.hosts
            for run in self.worlds[host.host_id].runs
            if run.app.name == app_name
        ]
        if len(matches) != 1:
            raise ExperimentError(
                f"{len(matches)} runs named {app_name!r}; migration "
                f"scheduling needs a unique app name"
            )
        return matches[0]

    # ------------------------------------------------------------------
    # Migration scheduling

    def migrate_at(
        self,
        epoch: int,
        app_name: str,
        dest_host_id: Optional[int] = None,
        **knobs,
    ) -> None:
        """Schedule ``app_name`` to start migrating at ``epoch``.

        ``dest_host_id`` of None lets the placement scheduler pick the
        best non-source host when the migration launches (scores reflect
        cluster state *at that epoch*, not at scheduling time).
        """
        self._plans.append(
            MigrationPlan(
                epoch=epoch,
                app_name=app_name,
                dest_host_id=dest_host_id,
                knobs=knobs,
            )
        )

    def _launch(self, plan: MigrationPlan) -> None:
        run = self.find_run(plan.app_name)
        source_world = self.world_of_run(run)
        source_host = source_world.host
        if plan.dest_host_id is not None:
            dest_host = self.hosts[plan.dest_host_id]
        else:
            domain = run.context.domain
            dest_host = self.scheduler.choose_host(
                self.hosts,
                domain.num_vcpus,
                domain.memory_pages,
                exclude=(source_host.host_id,),
            )
        if dest_host.host_id == source_host.host_id:
            raise ExperimentError(
                f"migration of {plan.app_name!r} targets its own host"
            )
        rng = np.random.default_rng(
            self.config.rng_seed
            + stable_hash(("migration", plan.app_name, plan.epoch)) % 10000
        )
        migration = LiveMigration(
            self.environment,
            run,
            source_host,
            dest_host,
            rng,
            **plan.knobs,
        )
        migration.begin()
        self.migrations.append(migration)

    def _transfer_run(self, migration: LiveMigration) -> None:
        """Move the migrated run between the two hosts' worlds."""
        source_world = self.worlds[migration.source_host.host_id]
        dest_world = self.worlds[migration.dest_host.host_id]
        source_world.runs.remove(migration.run)
        dest_world.runs.append(migration.run)

    # ------------------------------------------------------------------
    # The lockstep engine loop

    def simulate(self, max_epochs: int = DEFAULT_MAX_EPOCHS) -> List[RunResult]:
        """Simulate every host to completion; one result per app run.

        The hosts step as the lanes of one
        :func:`~repro.sim.engine.step_group` call per epoch; hosts with
        nothing to run idle-step. Results are grouped by host (ascending
        host id), each carrying the label of the world the run
        *finished* on — a migrated run reports its destination.
        """
        steppers = self._start()
        gather_cache: dict = {}
        while self.epoch < max_epochs:
            self._launch_due()
            idle = step_group(steppers, self.now, gather_cache)
            for stepper in idle:
                stepper.idle_step(self.now)
            if not self._advance(stepped=len(idle) < len(steppers)):
                break
        return self._results()

    def _start(self) -> List[EpochStepper]:
        """One initialized stepper per host, in host order."""
        if not self.worlds:
            raise ExperimentError("deploy() the cluster before simulate()")
        order = sorted(self.worlds)
        _check_compatible([self.worlds[host_id] for host_id in order])
        for host_id in order:
            stepper = EpochStepper(self.worlds[host_id])
            stepper.initialize()
            self.steppers[host_id] = stepper
        return [self.steppers[host_id] for host_id in order]

    def _launch_due(self) -> None:
        for plan in self._plans:
            if plan.epoch == self.epoch:
                self._launch(plan)

    def _advance(self, stepped: bool) -> bool:
        """Run this epoch's migration rounds and move the clock on.

        False — with the clock left where it is — once no host stepped
        and no migration is in flight: the cluster is done.
        """
        for migration in self.migrations:
            if migration.phase != "precopy":
                continue
            if migration.run.finished:
                # The run beat the protocol to the finish line; there
                # is nothing left worth moving.
                migration.abort()
                continue
            migration.on_epoch(self.epoch, self.config.epoch_seconds)
            if migration.phase == "complete":
                self._transfer_run(migration)
        if not stepped and not any(m.active for m in self.migrations):
            return False
        self.epoch += 1
        self.now += self.config.epoch_seconds
        return True

    def _results(self) -> List[RunResult]:
        """Finish every host's world and assemble the results."""
        # A run can complete before its migration does — tear the
        # half-built destination down so the heaps stay consistent.
        for migration in self.migrations:
            migration.abort()
        results: List[RunResult] = []
        migration_of_run = {
            id(m.run): m for m in self.migrations if m.phase == "complete"
        }
        tracer = obs.tracer()
        for host_id in sorted(self.worlds):
            stepper = self.steppers[host_id]
            world = self.worlds[host_id]
            runs = list(world.runs)
            host_results = stepper.finish(self.now)
            for run, result in zip(runs, host_results):
                migration = migration_of_run.get(id(run))
                if migration is not None:
                    result.stats.update(migration.stats.as_metrics())
            results.extend(host_results)
        if tracer.enabled:
            tracer.instant(
                "cluster.done",
                cat="cluster",
                epochs=self.epoch,
                hosts=len(self.hosts),
                migrations=len(self.migrations),
            )
        return results
