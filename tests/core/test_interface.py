"""The internal interface: map, invalidate, migrate."""

import pytest

from repro.core.interface import ExternalInterface, InternalInterface
from repro.hypervisor.allocator import XenHeapAllocator
from repro.hypervisor.domain import Domain
from repro.hypervisor.hypercalls import Hypercall, HypercallTable

from tests.conftest import small_machine


@pytest.fixture
def setup():
    machine = small_machine(num_nodes=4, cpus_per_node=2, frames_per_node=1024)
    allocator = XenHeapAllocator(machine, machine.config)
    internal = InternalInterface(machine, allocator)
    domain = Domain(
        domain_id=1, name="d", num_vcpus=2, memory_pages=64, home_nodes=(0, 1)
    )
    domain.p2m.frames_per_node = machine.memory.frames_per_node
    return machine, internal, domain


def map_page(internal, domain, gpfn, node):
    """Back ``gpfn`` with a fresh frame on ``node``; returns the mfn."""
    mfn = internal.allocator.alloc_page_on(node)
    domain.p2m.set_entry(gpfn, mfn)
    return mfn


class TestMapPage:
    def test_map_on_chosen_node(self, setup):
        machine, internal, domain = setup
        mfn = map_page(internal, domain, 3, node=2)
        assert machine.node_of_frame(mfn) == 2
        assert domain.p2m.translate(3) == mfn
        assert internal.nodes_of_gpfns(domain, [3]).tolist() == [2]


class TestInvalidate:
    def test_invalidate_frees_frame(self, setup):
        machine, internal, domain = setup
        before = machine.memory.free_frames_on(2)
        map_page(internal, domain, 3, node=2)
        assert internal.invalidate_page(domain, 3)
        assert machine.memory.free_frames_on(2) == before
        assert internal.nodes_of_gpfns(domain, [3]).tolist() == [-1]

    def test_invalidate_twice_is_false(self, setup):
        machine, internal, domain = setup
        map_page(internal, domain, 3, node=2)
        internal.invalidate_page(domain, 3)
        assert not internal.invalidate_page(domain, 3)

    def test_invalidate_absent_is_false(self, setup):
        machine, internal, domain = setup
        assert not internal.invalidate_page(domain, 9)


class TestMigratePage:
    def test_migrate_moves_and_frees_old(self, setup):
        machine, internal, domain = setup
        map_page(internal, domain, 3, node=0)
        free2 = machine.memory.free_frames_on(2)
        free0 = machine.memory.free_frames_on(0)
        assert internal.migrate_page(domain, 3, dst_node=2)
        assert internal.nodes_of_gpfns(domain, [3]).tolist() == [2]
        assert machine.memory.free_frames_on(2) == free2 - 1
        assert machine.memory.free_frames_on(0) == free0 + 1

    def test_migrate_restores_writability(self, setup):
        machine, internal, domain = setup
        map_page(internal, domain, 3, node=0)
        internal.migrate_page(domain, 3, dst_node=2)
        assert domain.p2m.lookup(3).writable

    def test_migrate_same_node_is_noop(self, setup):
        machine, internal, domain = setup
        map_page(internal, domain, 3, node=0)
        assert not internal.migrate_page(domain, 3, dst_node=0)

    def test_migrate_invalid_entry_is_noop(self, setup):
        machine, internal, domain = setup
        assert not internal.migrate_page(domain, 9, dst_node=2)

    def test_migrate_to_full_node_fails_gracefully(self, setup):
        machine, internal, domain = setup
        map_page(internal, domain, 3, node=0)
        while machine.memory.alloc_frames(2, 1) is not None:
            pass
        assert not internal.migrate_page(domain, 3, dst_node=2)
        assert internal.nodes_of_gpfns(domain, [3]).tolist() == [0]

    def test_migration_log_and_cost(self, setup):
        machine, internal, domain = setup
        map_page(internal, domain, 3, node=0)
        internal.migrate_page(domain, 3, dst_node=2)
        assert len(internal.migration_log) == 1
        record = internal.migration_log[0]
        assert (record.src_node, record.dst_node) == (0, 2)
        cost = internal.take_migration_seconds()
        assert cost == pytest.approx(internal.page_copy_seconds)
        assert internal.take_migration_seconds() == 0.0


class TestExternalInterface:
    def test_set_policy_hypercall(self):
        table = HypercallTable()
        seen = {}
        table.register(
            Hypercall.NUMA_SET_POLICY,
            lambda dom, vcpu, args: seen.update(dom=dom, **args),
        )
        external = ExternalInterface(table, domain_id=7)
        external.set_policy("first-touch", carrefour=True)
        assert seen == {"dom": 7, "policy": "first-touch", "carrefour": True}

    def test_flush_page_events_hypercall(self):
        table = HypercallTable()
        batches = []
        table.register(
            Hypercall.NUMA_PAGE_EVENTS,
            lambda dom, vcpu, events: batches.append(events),
        )
        external = ExternalInterface(table, domain_id=7)
        external.flush_page_events([1, 2, 3])
        assert batches == [[1, 2, 3]]
        assert external.flush_cost(64) == pytest.approx(
            table.costs.flush_cost(64)
        )
