"""vCPU load balancing under hypervisor-level NUMA policies.

The paper's introduction argues against exposing the NUMA topology to the
guest because it freezes the vCPU layout; with the policies *in the
hypervisor*, a vCPU can migrate freely and the dynamic policy chases its
pages. These tests exercise that exact scenario end to end.
"""


from repro.core.policies.base import PolicyName, PolicySpec
from repro.sim.engine import run_world
from repro.sim.environment import VmSpec, XenEnvironment, migrate_vcpu
from repro.workloads.suite import get_app

from tests.conftest import fast_app


def build_world(policy, app_name="cg.C", baseline=6.0):
    app = fast_app(get_app(app_name), baseline_seconds=baseline)
    env = XenEnvironment()
    return env.setup([VmSpec(app=app, policy=policy)])


def guest_mappings(run):
    """Every guest-virtual page of the run and the guest frame it maps."""
    aspace = run.context.aspace
    return {
        vpfn: aspace.translate(vpfn)
        for segment in run.segments
        for vpfn in segment.keys.tolist()
    }


def swap_nodes_0_and_7(world):
    """Exchange the vCPUs of node 0 and node 7 (a balancing decision)."""
    run = world.runs[0]
    for i in range(6):
        migrate_vcpu(run, i, 42 + i)        # node 0 vCPUs -> node 7 CPUs
    for i in range(6):
        migrate_vcpu(run, 42 + i, 0 + i)    # node 7 vCPUs -> node 0 CPUs


class TestMigrateVcpu:
    def test_thread_node_follows_pcpu(self):
        world = build_world(PolicySpec(PolicyName.FIRST_TOUCH))
        run = world.runs[0]
        run.initialize()
        migrate_vcpu(run, 0, 47)
        assert run.threads[0].node == 7
        assert world.runs[0].context.hypervisor.scheduler.pcpu_of(
            run.context.domain.vcpus[0]
        ) == 47
        world.teardown()

    def test_guest_topology_unchanged(self):
        """The whole point: the guest never learns about the move."""
        world = build_world(PolicySpec(PolicyName.FIRST_TOUCH))
        run = world.runs[0]
        run.initialize()
        mappings_before = guest_mappings(run)
        migrate_vcpu(run, 0, 47)
        # No guest-visible state changed: same address space, same pages.
        assert guest_mappings(run) == mappings_before
        world.teardown()


class TestLoadBalancingScenario:
    def test_static_first_touch_loses_locality_after_migration(self):
        world = build_world(PolicySpec(PolicyName.FIRST_TOUCH))
        world.at_epoch(2, swap_nodes_0_and_7)
        results = run_world(world, max_epochs=6)
        records = results[0].records
        # Locality drops once the vCPUs moved away from their pages.
        assert records[1].local_fraction > records[3].local_fraction

    def test_carrefour_chases_the_migrated_vcpus(self):
        world = build_world(
            PolicySpec(PolicyName.FIRST_TOUCH, carrefour=True), baseline=20.0
        )
        world.at_epoch(2, swap_nodes_0_and_7)
        results = run_world(world, max_epochs=14)
        records = results[0].records
        after_move = records[3].local_fraction
        settled = records[-1].local_fraction
        # The migration heuristic moves the hot pages after their users.
        assert settled > after_move + 0.02
        assert results[0].total_migrations > 0

    def test_carrefour_softens_the_migration_cost(self):
        """A mid-run rebalance hurts a static placement more than a
        dynamic one: Carrefour moves the pages after the vCPUs, the
        static first-touch placement stays stranded."""
        dynamic = PolicySpec(PolicyName.FIRST_TOUCH, carrefour=True)
        static = PolicySpec(PolicyName.FIRST_TOUCH)
        moved = {}
        for label, spec in (("dynamic", dynamic), ("static", static)):
            world = build_world(spec)
            world.at_epoch(2, swap_nodes_0_and_7)
            moved[label] = run_world(world)[0].completion_seconds
        undisturbed = run_world(build_world(dynamic))[0].completion_seconds
        assert moved["dynamic"] < moved["static"]
        assert moved["dynamic"] < undisturbed * 3.0
