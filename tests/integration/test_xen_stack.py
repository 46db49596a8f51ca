"""Full-stack Xen runs: faults, queues, policy switches, placement."""

import pytest

from repro.core.policies.base import PolicyName, PolicySpec
from repro.hypervisor.xen import XEN, XEN_PLUS
from repro.sim.engine import run_app
from repro.sim.environment import VmSpec, XenEnvironment
from repro.workloads.suite import get_app

from tests.conftest import fast_app


@pytest.fixture
def app():
    return fast_app(get_app("cg.C"), baseline_seconds=4.0)


class TestSingleVm:
    def test_first_touch_places_private_locally(self, app):
        env = XenEnvironment(features=XEN_PLUS)
        world = env.setup([VmSpec(app=app, policy=PolicySpec(PolicyName.FIRST_TOUCH))])
        run = world.runs[0]
        run.initialize()
        # Every thread's private segment must sit on the thread's node.
        for thread in run.threads:
            segment = run.private_by_tid[thread.tid]
            dist = segment.distribution(world.machine.num_nodes)
            assert dist[thread.node] == pytest.approx(1.0)
        world.teardown()

    def test_round_4k_spreads_evenly(self, app):
        env = XenEnvironment(features=XEN_PLUS)
        world = env.setup([VmSpec(app=app, policy=PolicySpec(PolicyName.ROUND_4K))])
        run = world.runs[0]
        run.initialize()
        shared = run.shared_segments[0]
        counts = shared.placement.counts
        assert counts.min() > 0
        assert counts.max() - counts.min() <= counts.mean() * 0.2
        world.teardown()

    def test_round_1g_concentrates_small_app(self):
        small = fast_app(get_app("ep.D"), baseline_seconds=4.0)
        env = XenEnvironment(features=XEN_PLUS)
        world = env.setup([VmSpec(app=small, policy=PolicySpec(PolicyName.ROUND_1G))])
        run = world.runs[0]
        run.initialize()
        shared = run.shared_segments[0]
        dist = shared.distribution(world.machine.num_nodes)
        assert dist.max() > 0.9  # everything in one 1 GiB chunk
        world.teardown()

    def test_placement_view_matches_p2m(self, app):
        """The incremental placement arrays never drift from the p2m."""
        env = XenEnvironment(features=XEN_PLUS)
        world = env.setup([VmSpec(app=app, policy=PolicySpec(PolicyName.FIRST_TOUCH))])
        run = world.runs[0]
        run.initialize()
        context = run.context
        machine = world.machine
        for segment in run.segments[:5]:
            for idx in range(segment.num_pages):
                gpfn = int(segment.keys[idx])
                expected = -1
                if gpfn >= 0:
                    entry = context.domain.p2m.lookup(gpfn)
                    if entry is not None and entry.valid:
                        expected = machine.node_of_frame(entry.mfn)
                assert segment.placement.nodes[idx] == expected
        world.teardown()

    def test_churn_exercises_queue_and_faults(self):
        churny = fast_app(get_app("wrmem"), baseline_seconds=4.0)
        env = XenEnvironment(features=XEN_PLUS)
        result = run_app(
            env, VmSpec(app=churny, policy=PolicySpec(PolicyName.FIRST_TOUCH))
        )
        assert result.completion_seconds > 0
        assert result.stats["churn_slowdown"] > 1.0

    def test_stock_xen_slower_than_xen_plus_for_ipi_app(self):
        ipi_heavy = fast_app(get_app("streamcluster"), baseline_seconds=4.0)
        spec = lambda: VmSpec(app=ipi_heavy, policy=PolicySpec(PolicyName.ROUND_4K))
        stock = run_app(XenEnvironment(features=XEN), spec())
        plus = run_app(XenEnvironment(features=XEN_PLUS), spec())
        assert plus.completion_seconds < stock.completion_seconds


class TestPolicyEffects:
    def test_first_touch_wins_for_cg(self, app):
        results = {}
        for base in (PolicyName.ROUND_1G, PolicyName.ROUND_4K, PolicyName.FIRST_TOUCH):
            env = XenEnvironment(features=XEN_PLUS)
            results[base] = run_app(
                env, VmSpec(app=app, policy=PolicySpec(base))
            ).completion_seconds
        assert results[PolicyName.FIRST_TOUCH] < results[PolicyName.ROUND_4K]
        assert results[PolicyName.FIRST_TOUCH] < results[PolicyName.ROUND_1G]

    def test_round_1g_catastrophic_for_memory_bound_app(self, app):
        env = XenEnvironment(features=XEN_PLUS)
        r1g = run_app(env, VmSpec(app=app, policy=PolicySpec(PolicyName.ROUND_1G)))
        env = XenEnvironment(features=XEN_PLUS)
        ft = run_app(env, VmSpec(app=app, policy=PolicySpec(PolicyName.FIRST_TOUCH)))
        # The paper's headline: cg.C completion divided by ~6 (we accept >3).
        assert r1g.completion_seconds / ft.completion_seconds > 3.0

    def test_carrefour_on_round4k_recovers_locality(self, app):
        env = XenEnvironment(features=XEN_PLUS)
        plain = run_app(env, VmSpec(app=app, policy=PolicySpec(PolicyName.ROUND_4K)))
        env = XenEnvironment(features=XEN_PLUS)
        with_c = run_app(
            env,
            VmSpec(app=app, policy=PolicySpec(PolicyName.ROUND_4K, carrefour=True)),
        )
        assert with_c.mean_local_fraction > plain.mean_local_fraction
        assert with_c.completion_seconds < plain.completion_seconds
        assert with_c.total_migrations > 0
