"""The hypervisor CarrefourPolicy: migrations through the real plumbing."""

import numpy as np
import pytest

from repro.carrefour.engine import CarrefourConfig
from repro.core.policies.base import EpochObservation
from repro.hardware.counters import HotPageSample
from repro.hypervisor.hypercalls import Hypercall
from repro.hypervisor.xen import Hypervisor


@pytest.fixture
def setup(machine4):
    hv = Hypervisor(machine4)
    domain = hv.create_domain(
        "t", num_vcpus=2, memory_pages=256, home_nodes=[0, 1, 2, 3]
    )
    hv.policy_manager.carrefour_config = CarrefourConfig(
        min_access_rate_per_s=1.0
    )
    hv.set_policy(domain, carrefour=True)
    return hv, domain


def observation(machine, domain, hot_gpfns, src_node=1):
    n = machine.num_nodes
    matrix = np.zeros((n, n))
    matrix[:, 0] = 1e9 / n  # node 0 overloaded
    hot = [
        HotPageSample(
            page=g,
            domain_id=domain.domain_id,
            node_accesses=tuple(
                int(1000 if i == src_node else 0) for i in range(n)
            ),
        )
        for g in hot_gpfns
    ]
    return EpochObservation(
        epoch_seconds=1.0,
        access_matrix=matrix,
        controller_rho=np.zeros(n),
        max_link_rho=0.5,
        hot_pages=hot,
    )


class TestCarrefourPolicy:
    def test_on_epoch_migrates_hot_pages(self, setup):
        hv, domain = setup
        machine = hv.machine
        policy = domain.numa_policy
        # Pick pages currently on node 0 (round-4K boot placed 0,4,8...).
        victims = [g for g in range(0, 32, 4)]
        for g in victims:
            assert machine.node_of_frame(domain.p2m.translate(g)) == 0
        cost = policy.on_epoch(
            domain, observation(machine, domain, victims, src_node=1)
        )
        assert cost > 0
        # The migration heuristic moved them to their single accessor.
        for g in victims:
            assert machine.node_of_frame(domain.p2m.translate(g)) == 1
        assert domain.p2m.migrations == len(victims)

    def test_commands_travel_through_hypercall(self, setup):
        hv, domain = setup
        policy = domain.numa_policy
        before, _ = hv.hypercalls.stats[Hypercall.CARREFOUR_CONTROL]
        policy.on_epoch(
            domain, observation(hv.machine, domain, [0, 4, 8], src_node=2)
        )
        after, _ = hv.hypercalls.stats[Hypercall.CARREFOUR_CONTROL]
        assert after == before + 1

    def test_idle_when_rate_low(self, setup):
        hv, domain = setup
        policy = domain.numa_policy
        policy.engine.config = CarrefourConfig(min_access_rate_per_s=1e15)
        policy.engine.user.config = policy.engine.config
        n = hv.machine.num_nodes
        obs = EpochObservation(
            epoch_seconds=1.0,
            access_matrix=np.ones((n, n)),
            controller_rho=np.zeros(n),
            max_link_rho=0.0,
        )
        assert policy.on_epoch(domain, obs) == 0.0
        assert domain.p2m.migrations == 0

    def test_invalid_pages_not_migrated(self, setup):
        hv, domain = setup
        policy = domain.numa_policy
        mfn = domain.p2m.invalidate(4)
        hv.allocator.free_page(mfn)
        policy.on_epoch(domain, observation(hv.machine, domain, [4], 2))
        assert domain.p2m.mfn_if_valid(4) == -1

    def test_migration_cost_proportional_to_pages(self, setup):
        hv, domain = setup
        policy = domain.numa_policy
        few = policy.on_epoch(
            domain, observation(hv.machine, domain, [0], src_node=3)
        )
        many = policy.on_epoch(
            domain,
            observation(hv.machine, domain, list(range(1, 33)), src_node=3),
        )
        assert many > few
