"""AppRun internals: segment weights, destinations, work, sampling."""

import numpy as np
import pytest

from repro.core.policies.base import PolicyName, PolicySpec
from repro.sim.environment import VmSpec, XenEnvironment
from repro.sim.instance import HOT_SUBSET_MIN_PAGES, RuntimeSegment
from repro.workloads.app import SegmentDef
from repro.workloads.patterns import SegmentSpec
from repro.workloads.suite import get_app

from tests.conftest import fast_app


def shared_segment(num_pages=100, hot_weight=0.2, num_nodes=8):
    spec = SegmentSpec(
        name="shared", fraction=1.0, init="master", access="all",
        weight=1.0, hot_weight=hot_weight,
    )
    return RuntimeSegment(SegmentDef(spec=spec, num_pages=num_pages), num_nodes)


def private_segment(num_pages=10, owner=0, num_nodes=8):
    spec = SegmentSpec(
        name="private", fraction=1.0, init="owner", access="owner", weight=1.0
    )
    return RuntimeSegment(
        SegmentDef(spec=spec, num_pages=num_pages, owner_tid=owner), num_nodes
    )


class TestPageWeights:
    def test_weights_sum_to_one(self):
        seg = shared_segment(num_pages=500, hot_weight=0.3)
        assert seg.page_weights.sum() == pytest.approx(1.0)

    def test_dominant_page_weight(self):
        seg = shared_segment(num_pages=500, hot_weight=0.3)
        assert seg.page_weights[0] == pytest.approx(0.3)

    def test_hot_subset_exists(self):
        seg = shared_segment(num_pages=500, hot_weight=0.0)
        subset = seg.page_weights[1 : 1 + HOT_SUBSET_MIN_PAGES]
        tail = seg.page_weights[1 + HOT_SUBSET_MIN_PAGES :]
        assert subset.min() > tail.max()

    def test_single_page_segment(self):
        seg = shared_segment(num_pages=1, hot_weight=0.5)
        assert seg.page_weights.tolist() == [1.0]

    def test_private_segments_have_no_weights(self):
        assert private_segment().page_weights is None


class TestDistribution:
    def test_uniform_private_distribution(self):
        seg = private_segment(num_pages=4)
        seg.placement.place(0, 1)
        seg.placement.place(1, 1)
        seg.placement.place(2, 2)
        seg.placement.place(3, 3)
        dist = seg.distribution(8)
        assert dist[1] == pytest.approx(0.5)
        assert dist.sum() == pytest.approx(1.0)

    def test_weighted_shared_distribution(self):
        seg = shared_segment(num_pages=100, hot_weight=0.5)
        for idx in range(100):
            seg.placement.place(idx, idx % 8)
        dist = seg.distribution(8)
        # The dominant page sits on node 0: it gets its 0.5 plus a share.
        assert dist[0] > 0.5
        assert dist.sum() == pytest.approx(1.0)

    def test_unmapped_pages_excluded(self):
        seg = shared_segment(num_pages=10, hot_weight=0.4)
        seg.placement.place(5, 3)  # only one cold page mapped
        dist = seg.distribution(8)
        assert dist[3] == pytest.approx(1.0)


class TestAppRunPieces:
    @pytest.fixture
    def run(self):
        app = fast_app(get_app("facesim"))
        env = XenEnvironment()
        world = env.setup([VmSpec(app=app, policy=PolicySpec(PolicyName.ROUND_4K))])
        self.world = world
        world.runs[0].initialize()
        return world.runs[0]

    def test_destination_matrix_shape(self, run):
        D, src, active = run.destination_matrix(8)
        assert D.shape == (48, 8)
        assert active.all()
        np.testing.assert_allclose(D.sum(axis=1), 1.0)
        self.world.teardown()

    def test_commit_work_finishes_threads(self, run):
        target = run.op_model.ops_per_thread
        ops = np.full(48, target * 2)
        done = run.commit_work(ops, epoch_start=10.0, epoch_seconds=1.0)
        assert run.finished
        assert done == pytest.approx(target * 48)
        # Finishing mid-epoch interpolates: half the epoch used.
        assert run.threads[0].finish_time == pytest.approx(10.5)
        self.world.teardown()

    def test_commit_work_partial(self, run):
        target = run.op_model.ops_per_thread
        ops = np.full(48, target / 4)
        run.commit_work(ops, 0.0, 1.0)
        assert not run.finished
        assert run.threads[0].work_done == pytest.approx(target / 4)
        self.world.teardown()

    def test_finished_threads_stop_contributing(self, run):
        target = run.op_model.ops_per_thread
        ops = np.zeros(48)
        ops[0] = target * 2
        run.commit_work(ops, 0.0, 1.0)
        D, src, active = run.destination_matrix(8)
        assert not active[0]
        assert active[1:].all()
        self.world.teardown()

    def test_observation_without_dynamic_policy_has_no_samples(self, run):
        obs = run.build_observation(
            access_matrix=np.zeros((8, 8)),
            controller_rho=np.zeros(8),
            max_link_rho=0.0,
            epoch_seconds=1.0,
            ops_by_node=np.ones(8),
        )
        assert obs.hot_pages == []
        self.world.teardown()


class TestDynamicSampling:
    @pytest.fixture
    def carrefour_run(self):
        app = fast_app(get_app("facesim"))
        env = XenEnvironment()
        world = env.setup(
            [VmSpec(app=app, policy=PolicySpec(PolicyName.ROUND_4K, True))]
        )
        self.world = world
        world.runs[0].initialize()
        return world.runs[0]

    def test_samples_generated_for_dynamic_policy(self, carrefour_run):
        obs = carrefour_run.build_observation(
            access_matrix=np.ones((8, 8)),
            controller_rho=np.zeros(8),
            max_link_rho=0.0,
            epoch_seconds=1.0,
            ops_by_node=np.full(8, 1e6),
        )
        assert len(obs.hot_pages) > 0
        # Samples carry the owning domain and valid page keys.
        domid = carrefour_run.context.domain_id
        assert all(s.domain_id == domid for s in obs.hot_pages)
        assert all(s.page >= 0 for s in obs.hot_pages)
        self.world.teardown()

    def test_hottest_page_sampled_first(self, carrefour_run):
        obs = carrefour_run.build_observation(
            access_matrix=np.ones((8, 8)),
            controller_rho=np.zeros(8),
            max_link_rho=0.0,
            epoch_seconds=1.0,
            ops_by_node=np.full(8, 1e6),
        )
        shared = carrefour_run.shared_segments[0]
        hot_key = int(shared.keys[0])
        sampled_keys = {s.page for s in obs.hot_pages}
        assert hot_key in sampled_keys
        self.world.teardown()


class TestChurn:
    def test_churn_step_releases_and_retouches(self):
        app = fast_app(get_app("wrmem"))
        env = XenEnvironment()
        world = env.setup([VmSpec(app=app, policy=PolicySpec(PolicyName.FIRST_TOUCH))])
        run = world.runs[0]
        run.initialize()
        faults_before = run.context.hypervisor.fault_handler.stats.hypervisor_faults
        run.churn_step()
        faults_after = run.context.hypervisor.fault_handler.stats.hypervisor_faults
        # Under first-touch with flushed queues, some reallocations fault.
        assert faults_after >= faults_before
        assert run.context.patch.queue.stats.events > 0
        world.teardown()

    def test_no_churn_for_quiet_apps(self):
        app = fast_app(get_app("cg.C"))
        env = XenEnvironment()
        world = env.setup([VmSpec(app=app, policy=PolicySpec(PolicyName.ROUND_4K))])
        run = world.runs[0]
        run.initialize()
        events_before = run.context.patch.queue.stats.events
        run.churn_step()
        assert run.context.patch.queue.stats.events == events_before
        world.teardown()
