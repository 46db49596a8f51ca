"""Pre-copy live migration: protocol, re-homing, determinism, abort."""

import json

import numpy as np
import pytest

from repro.sim.engine import EpochStepper

from tests.cluster.conftest import build_cluster, cluster_vms


def _simulate(migrate_epoch=2, **knobs):
    cluster = build_cluster()
    cluster.deploy(cluster_vms())
    cluster.migrate_at(migrate_epoch, "streamcluster", **knobs)
    results = cluster.simulate()
    return cluster, {result.app: result for result in results}


def _drive_to_cutover(cluster, **knobs):
    """Run the protocol by hand (no engine epochs) until it completes."""
    cluster.migrate_at(0, "streamcluster", **knobs)
    for host_id in sorted(cluster.worlds):
        stepper = EpochStepper(cluster.worlds[host_id])
        stepper.initialize()
        cluster.steppers[host_id] = stepper
    (plan,) = cluster._plans
    cluster._launch(plan)
    (migration,) = cluster.migrations
    epoch = 0
    while migration.phase == "precopy":
        migration.on_epoch(epoch, 1.0)
        epoch += 1
    if migration.phase == "complete":
        cluster._transfer_run(migration)
    return migration


class TestEndToEnd:
    def test_migrated_run_finishes_on_destination(self):
        cluster, by_app = _simulate()
        result = by_app["streamcluster"]
        assert result.environment == "xen+@h1"
        assert result.stats["migration.rounds"] >= 1
        assert result.stats["migration.pages_copied"] > 0
        assert result.stats["migration.downtime_seconds"] > 0

    def test_untouched_run_reports_no_migration(self):
        _, by_app = _simulate()
        stats = by_app["facesim"].stats
        assert not any(key.startswith("migration.") for key in stats)

    def test_round_budget_forces_cutover(self):
        _, by_app = _simulate(
            dirty_threshold=0, round_budget=3, writes_per_epoch=512
        )
        stats = by_app["streamcluster"].stats
        assert stats["migration.rounds"] == 3
        assert stats["migration.converged"] == 0.0

    def test_both_runs_complete(self):
        _, by_app = _simulate()
        assert set(by_app) == {"streamcluster", "facesim"}
        for result in by_app.values():
            assert result.completion_seconds > 0

    def test_source_frames_freed_after_cutover(self):
        cluster, _ = _simulate()
        source = cluster.hosts[0]
        # The evacuated host holds no domUs any more (dom0 remains).
        domus = [
            d for d in source.hypervisor.domains.values() if not d.is_dom0
        ]
        assert not domus


class TestDeterminism:
    def test_two_simulations_byte_identical(self):
        def one():
            cluster = build_cluster()
            cluster.deploy(cluster_vms())
            cluster.migrate_at(2, "streamcluster")
            return [
                json.dumps(r.to_json(), sort_keys=True)
                for r in cluster.simulate()
            ]

        assert one() == one()


class TestReHoming:
    def test_placements_survive_source_destroy(self):
        """Regression: tearing the source down must not release the
        destination's freshly resynced segment placements (the source
        p2m's observer used to still point at the shared placements)."""
        cluster = build_cluster()
        cluster.deploy(cluster_vms())
        migration = _drive_to_cutover(cluster)
        assert migration.phase == "complete"
        run = migration.run
        for segment in run.segments:
            touched = segment.keys[segment.keys >= 0]
            if touched.size == 0:
                continue
            assert segment.placement.mapped_pages == touched.size

    def test_placements_match_destination_p2m(self):
        cluster = build_cluster()
        cluster.deploy(cluster_vms())
        migration = _drive_to_cutover(cluster)
        run = migration.run
        domain = run.context.domain
        assert domain is migration.dest_domain
        for segment in run.segments:
            idx = np.nonzero(segment.keys >= 0)[0]
            if idx.size == 0:
                continue
            nodes = domain.p2m.nodes_of(segment.keys[idx])
            assert (nodes >= 0).all()
            for i, node in zip(idx.tolist(), nodes.tolist()):
                assert segment.placement.nodes[i] == node

    def test_context_bound_to_destination_host(self):
        cluster = build_cluster()
        cluster.deploy(cluster_vms())
        migration = _drive_to_cutover(cluster)
        context = migration.run.context
        dest = cluster.hosts[1]
        assert context.hypervisor is dest.hypervisor
        assert context.domain.domain_id in dest.hypervisor.domains
        # Thread pins were re-derived from the destination vCPUs.
        for thread in migration.run.threads:
            assert thread.node == dest.hypervisor.vcpu_node(
                context.domain, thread.tid
            )

    def test_fault_accounting_reset_on_rebind(self):
        """Regression: the context must not carry the source hypervisor's
        fault-seconds watermark onto the destination (it would swallow
        or double-charge the first destination epoch)."""
        cluster = build_cluster()
        cluster.deploy(cluster_vms())
        migration = _drive_to_cutover(cluster)
        context = migration.run.context
        expected = context.hypervisor.fault_handler.stats.seconds_spent
        assert context._hv_fault_seconds_seen == expected


class TestAbort:
    def test_run_finishing_first_aborts_migration(self):
        cluster, by_app = _simulate(
            migrate_epoch=4,
            dirty_threshold=0,
            round_budget=10**6,
            writes_per_epoch=512,
        )
        (migration,) = cluster.migrations
        assert migration.phase == "aborted"
        result = by_app["streamcluster"]
        assert result.environment == "xen+@h0"
        # An abandoned protocol contributes no migration stats.
        assert not any(key.startswith("migration.") for key in result.stats)
        # The half-built destination domain was torn down: host 1 keeps
        # only dom0 and its own facesim domU.
        assert migration.dest_domain is None
        domus = [
            d
            for d in cluster.hosts[1].hypervisor.domains.values()
            if not d.is_dom0
        ]
        assert len(domus) == 1

    def test_abort_releases_protections(self):
        cluster = build_cluster()
        cluster.deploy(cluster_vms())
        cluster.migrate_at(0, "streamcluster")
        for host_id in sorted(cluster.worlds):
            stepper = EpochStepper(cluster.worlds[host_id])
            stepper.initialize()
            cluster.steppers[host_id] = stepper
        (plan,) = cluster._plans
        cluster._launch(plan)
        (migration,) = cluster.migrations
        migration.on_epoch(0, 1.0)
        if migration.phase == "precopy":
            migration.abort()
        source = cluster.worlds[0].runs[0].context.domain
        resident = source.p2m.valid_gpfns()
        assert bool(source.p2m.writable_mask(resident).all())


class TestKnobValidation:
    def test_migrating_unknown_app_fails_at_launch(self):
        from repro.errors import ExperimentError

        cluster = build_cluster()
        cluster.deploy(cluster_vms())
        cluster.migrate_at(0, "no-such-app")
        with pytest.raises(ExperimentError):
            cluster.simulate()

    def test_pinned_destination_must_differ_from_source(self):
        from repro.errors import ExperimentError

        cluster = build_cluster()
        cluster.deploy(cluster_vms())
        cluster.migrate_at(0, "streamcluster", dest_host_id=0)
        with pytest.raises(ExperimentError):
            cluster.simulate()
