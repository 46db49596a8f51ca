"""Hypervisor page-fault path."""

import pytest

from repro.core.policies.first_touch import FirstTouchPolicy
from repro.core.interface import InternalInterface
from repro.errors import P2MError
from repro.hypervisor.allocator import XenHeapAllocator
from repro.hypervisor.domain import Domain
from repro.hypervisor.faults import FaultHandler

from tests.conftest import small_machine


@pytest.fixture
def setup():
    machine = small_machine(num_nodes=4, cpus_per_node=2, frames_per_node=2048)
    allocator = XenHeapAllocator(machine, machine.config)
    internal = InternalInterface(machine, allocator)
    handler = FaultHandler(allocator)
    domain = Domain(
        domain_id=1, name="d", num_vcpus=2, memory_pages=100, home_nodes=(0, 1)
    )
    return machine, allocator, internal, handler, domain


class TestFastPath:
    def test_valid_entry_costs_nothing(self, setup):
        machine, allocator, internal, handler, domain = setup
        domain.p2m.set_entry(5, 42)
        mfn = handler.on_access(domain, 0, 5, node_of_vcpu=0)
        assert mfn == 42
        assert handler.stats.hypervisor_faults == 0
        assert handler.stats.seconds_spent == 0.0


class TestFaultPath:
    def test_first_touch_places_on_faulting_node(self, setup):
        machine, allocator, internal, handler, domain = setup
        domain.numa_policy = FirstTouchPolicy(internal)
        mfn = handler.on_access(domain, 0, 5, node_of_vcpu=3)
        assert machine.node_of_frame(mfn) == 3
        assert domain.p2m.translate(5) == mfn
        assert handler.stats.hypervisor_faults == 1

    def test_fault_time_accounted(self, setup):
        machine, allocator, internal, handler, domain = setup
        domain.numa_policy = FirstTouchPolicy(internal)
        handler.on_access(domain, 0, 5, node_of_vcpu=1)
        handler.on_access(domain, 0, 6, node_of_vcpu=1)
        assert handler.stats.seconds_spent == pytest.approx(
            2 * handler.fault_cost_seconds
        )

    def test_no_policy_falls_back_to_home_node(self, setup):
        machine, allocator, internal, handler, domain = setup
        mfn = handler.on_access(domain, 0, 7, node_of_vcpu=3)
        assert machine.node_of_frame(mfn) == domain.home_nodes[0]

    def test_refault_after_invalidation(self, setup):
        """The first-touch cycle: map, release (invalidate), re-fault."""
        machine, allocator, internal, handler, domain = setup
        domain.numa_policy = FirstTouchPolicy(internal)
        handler.on_access(domain, 0, 5, node_of_vcpu=0)
        internal.invalidate_page(domain, 5)
        mfn = handler.on_access(domain, 1, 5, node_of_vcpu=2)
        assert machine.node_of_frame(mfn) == 2
        assert handler.stats.hypervisor_faults == 2


class TestWriteProtection:
    def test_write_fault_accounted(self, setup):
        machine, allocator, internal, handler, domain = setup
        domain.p2m.set_entry(5, 42)
        domain.p2m.write_protect(5)
        handler.on_write_protected(domain, 5)
        assert handler.stats.write_protection_faults == 1
        assert handler.stats.seconds_spent > 0

    def test_write_fault_on_invalid_rejected(self, setup):
        machine, allocator, internal, handler, domain = setup
        with pytest.raises(P2MError):
            handler.on_write_protected(domain, 5)

    def test_write_fault_on_writable_entry_rejected(self, setup):
        # Regression: a write fault against a still-writable entry is a
        # migration-protocol violation (the hardware could not have
        # trapped that write); it used to be silently accounted.
        machine, allocator, internal, handler, domain = setup
        domain.p2m.set_entry(5, 42)
        with pytest.raises(P2MError, match="writable"):
            handler.on_write_protected(domain, 5)
        assert handler.stats.write_protection_faults == 0
        assert handler.stats.seconds_spent == 0.0
