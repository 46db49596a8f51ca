"""The four NUMA policies and the policy spec parsing."""

import pytest

from repro.core.interface import InternalInterface
from repro.core.page_queue import PageEvent, PageOp
from repro.core.policies import (
    CarrefourPolicy,
    FirstTouchPolicy,
    PolicyName,
    PolicySpec,
    Round1GPolicy,
    Round4KPolicy,
    make_policy,
)
from repro.errors import PolicyError
from repro.hypervisor.allocator import XenHeapAllocator
from repro.hypervisor.domain import Domain

from tests.conftest import small_machine


@pytest.fixture
def setup():
    machine = small_machine(num_nodes=4, cpus_per_node=2, frames_per_node=8192)
    allocator = XenHeapAllocator(machine, machine.config)
    internal = InternalInterface(machine, allocator)
    domain = Domain(
        domain_id=1, name="d", num_vcpus=2, memory_pages=256, home_nodes=(0, 1, 2, 3)
    )
    return machine, allocator, internal, domain


class TestPolicySpec:
    @pytest.mark.parametrize(
        "text,base,carrefour",
        [
            ("round-4k", PolicyName.ROUND_4K, False),
            ("first-touch", PolicyName.FIRST_TOUCH, False),
            ("round-1g", PolicyName.ROUND_1G, False),
            ("first-touch/carrefour", PolicyName.FIRST_TOUCH, True),
            ("Round-4K / Carrefour", PolicyName.ROUND_4K, True),
        ],
    )
    def test_parse(self, text, base, carrefour):
        spec = PolicySpec.parse(text)
        assert spec.base is base
        assert spec.carrefour is carrefour

    def test_parse_rejects_unknown(self):
        with pytest.raises(PolicyError):
            PolicySpec.parse("numa-balancing")

    def test_parse_rejects_round1g_carrefour(self):
        with pytest.raises(PolicyError):
            PolicySpec.parse("round-1g/carrefour")

    def test_label_roundtrip(self):
        spec = PolicySpec(PolicyName.FIRST_TOUCH, carrefour=True)
        assert PolicySpec.parse(spec.label) == spec


class TestRound4K:
    def test_populate_round_robin(self, setup):
        machine, allocator, internal, domain = setup
        policy = Round4KPolicy(internal)
        policy.populate(domain)
        nodes = [
            machine.node_of_frame(domain.p2m.translate(g)) for g in range(8)
        ]
        assert nodes == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_flags(self, setup):
        _, _, internal, _ = setup
        policy = Round4KPolicy(internal)
        assert not policy.is_dynamic
        assert not policy.wants_page_events
        assert not policy.requires_iommu_disabled

    def test_fault_round_robins_home_nodes(self, setup):
        machine, allocator, internal, domain = setup
        policy = Round4KPolicy(internal)
        nodes = [policy.on_hypervisor_fault(domain, 0, g, 0) for g in range(4)]
        assert nodes == [0, 1, 2, 3]


class TestRound1G:
    def test_populate_all_pages(self, setup):
        machine, allocator, internal, domain = setup
        policy = Round1GPolicy(internal)
        policy.populate(domain)
        assert domain.p2m.num_valid == domain.memory_pages

    def test_flags(self, setup):
        _, _, internal, _ = setup
        policy = Round1GPolicy(internal)
        assert not policy.wants_page_events
        assert not policy.requires_iommu_disabled


class TestFirstTouch:
    def test_lazy_populate_maps_nothing(self, setup):
        machine, allocator, internal, domain = setup
        policy = FirstTouchPolicy(internal, populate_lazily=True)
        policy.populate(domain)
        assert domain.p2m.num_valid == 0
        assert domain.built

    def test_runtime_switch_keeps_mapping(self, setup):
        machine, allocator, internal, domain = setup
        Round4KPolicy(internal).populate(domain)
        policy = FirstTouchPolicy(internal, populate_lazily=False)
        policy.populate(domain)
        assert domain.p2m.num_valid == domain.memory_pages

    def test_fault_answers_vcpu_node(self, setup):
        machine, allocator, internal, domain = setup
        policy = FirstTouchPolicy(internal)
        assert policy.on_hypervisor_fault(domain, 0, 5, vcpu_node=3) == 3

    def test_flags(self, setup):
        _, _, internal, _ = setup
        policy = FirstTouchPolicy(internal)
        assert policy.wants_page_events
        assert policy.requires_iommu_disabled
        assert not policy.is_dynamic

    def test_page_events_invalidate_released(self, setup):
        machine, allocator, internal, domain = setup
        Round4KPolicy(internal).populate(domain)
        policy = FirstTouchPolicy(internal, populate_lazily=False)
        events = [PageEvent(PageOp.RELEASE, 3), PageEvent(PageOp.RELEASE, 4)]
        inv, skip = policy.on_page_events(domain, events)
        assert (inv, skip) == (2, 0)
        assert domain.p2m.mfn_if_valid(3) == -1
        assert policy.pages_invalidated == 2

    def test_page_events_skip_reallocated(self, setup):
        machine, allocator, internal, domain = setup
        Round4KPolicy(internal).populate(domain)
        policy = FirstTouchPolicy(internal, populate_lazily=False)
        events = [PageEvent(PageOp.RELEASE, 3), PageEvent(PageOp.ALLOC, 3)]
        inv, skip = policy.on_page_events(domain, events)
        assert (inv, skip) == (0, 1)
        assert domain.p2m.mfn_if_valid(3) != -1
        assert policy.reallocations_skipped == 1


class TestFactory:
    def test_builds_bases(self, setup):
        _, _, internal, _ = setup
        assert isinstance(
            make_policy(PolicySpec(PolicyName.ROUND_1G), internal), Round1GPolicy
        )
        assert isinstance(
            make_policy(PolicySpec(PolicyName.ROUND_4K), internal), Round4KPolicy
        )
        assert isinstance(
            make_policy(PolicySpec(PolicyName.FIRST_TOUCH), internal),
            FirstTouchPolicy,
        )

    def test_builds_carrefour_wrapper(self, setup):
        _, _, internal, _ = setup
        policy = make_policy(
            PolicySpec(PolicyName.ROUND_4K, carrefour=True), internal
        )
        assert isinstance(policy, CarrefourPolicy)
        assert policy.name == "round-4k/carrefour"
        assert policy.is_dynamic
        policy.shutdown()

    def test_carrefour_inherits_base_flags(self, setup):
        _, _, internal, _ = setup
        policy = make_policy(
            PolicySpec(PolicyName.FIRST_TOUCH, carrefour=True), internal
        )
        assert policy.wants_page_events
        assert policy.requires_iommu_disabled
        policy.shutdown()
