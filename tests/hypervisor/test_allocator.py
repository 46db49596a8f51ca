"""The Xen heap allocator: round-1G / round-4K population, home nodes."""

import pytest

from repro.errors import OutOfMemoryError
from repro.hypervisor.allocator import XenHeapAllocator, choose_home_nodes
from repro.hypervisor.domain import Domain

from tests.conftest import small_machine


@pytest.fixture
def machine():
    # 4 nodes x 8192 frames; page_scale 256 -> 1 GiB = 1024 pages.
    return small_machine(num_nodes=4, cpus_per_node=2, frames_per_node=8192)


@pytest.fixture
def allocator(machine):
    return XenHeapAllocator(machine, machine.config)


def make_domain(pages, nodes=(0, 1, 2, 3)):
    return Domain(
        domain_id=1, name="d", num_vcpus=2, memory_pages=pages, home_nodes=nodes
    )


class TestRound1G:
    def test_head_and_tail_fragmented(self, allocator, machine):
        """The first and last guest GiB are 4 KiB-allocated round-robin."""
        gib = allocator.gib_pages
        domain = make_domain(gib * 4)
        allocator.populate_round_1g(domain)
        # Head pages alternate over home nodes page by page.
        head_nodes = [
            machine.node_of_frame(domain.p2m.translate(g)) for g in range(8)
        ]
        assert head_nodes == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_middle_is_chunked(self, allocator, machine):
        gib = allocator.gib_pages
        domain = make_domain(gib * 4)
        allocator.populate_round_1g(domain)
        # The middle (two whole GiBs) is contiguous per node.
        middle = range(gib, 3 * gib)
        nodes = [machine.node_of_frame(domain.p2m.translate(g)) for g in middle]
        first_chunk = set(nodes[: gib])
        second_chunk = set(nodes[gib:])
        assert len(first_chunk) == 1
        assert len(second_chunk) == 1
        assert first_chunk != second_chunk

    def test_all_pages_mapped(self, allocator):
        domain = make_domain(allocator.gib_pages * 3 + 17)
        allocator.populate_round_1g(domain)
        assert domain.p2m.num_valid == domain.memory_pages
        assert domain.built

    def test_fallback_on_fragmentation(self, allocator, machine):
        """With node 0 fragmented, 1 GiB chunks fall back to 2 MiB runs."""
        # Fragment node 0: allocate every other 2-frame run.
        holes = []
        for _ in range(2048):
            machine.memory.alloc_frames(0, 2)
            holes.append(machine.memory.alloc_frames(0, 2))
        for mfn in holes:
            machine.memory.free_frames(mfn, 2)
        domain = make_domain(allocator.gib_pages * 3)
        allocator.populate_round_1g(domain)  # must not raise
        assert domain.p2m.num_valid == domain.memory_pages


class TestRound4K:
    def test_round_robin_over_home_nodes(self, allocator, machine):
        domain = make_domain(64, nodes=(1, 3))
        allocator.populate_round_4k(domain)
        nodes = [
            machine.node_of_frame(domain.p2m.translate(g)) for g in range(8)
        ]
        assert nodes == [1, 3, 1, 3, 1, 3, 1, 3]

    def test_all_mapped(self, allocator):
        domain = make_domain(1000)
        allocator.populate_round_4k(domain)
        assert domain.p2m.num_valid == 1000


class TestPageLevel:
    def test_alloc_on_preferred_node(self, allocator, machine):
        mfn = allocator.alloc_page_on(2)
        assert machine.node_of_frame(mfn) == 2

    def test_fallback_when_node_full(self, allocator, machine):
        while machine.memory.alloc_frames(2, 1) is not None:
            pass
        mfn = allocator.alloc_page_on(2)
        assert machine.node_of_frame(mfn) != 2

    def test_oom_when_machine_full(self, allocator, machine):
        for node in range(4):
            while machine.memory.alloc_frames(node, 1) is not None:
                pass
        with pytest.raises(OutOfMemoryError):
            allocator.alloc_page_on(0)

    def test_free_page_returns_frame(self, allocator, machine):
        before = machine.memory.free_frames_on(1)
        mfn = allocator.alloc_page_on(1)
        allocator.free_page(mfn)
        assert machine.memory.free_frames_on(1) == before


class TestDepopulate:
    def test_depopulate_frees_everything(self, allocator, machine):
        free_before = sum(
            machine.memory.free_frames_on(n) for n in range(4)
        )
        domain = make_domain(500)
        allocator.populate_round_4k(domain)
        freed = allocator.depopulate(domain)
        assert freed == 500
        free_after = sum(machine.memory.free_frames_on(n) for n in range(4))
        assert free_after == free_before

    def test_invalidated_pages_not_double_freed(self, allocator, machine):
        domain = make_domain(10)
        allocator.populate_round_4k(domain)
        mfn = domain.p2m.invalidate(3)
        allocator.free_page(mfn)
        assert allocator.depopulate(domain) == 9


class TestChooseHomeNodes:
    def test_explicit_nodes_validated(self, machine):
        assert choose_home_nodes(machine, 2, 100, preferred=[1, 2]) == (1, 2)
        with pytest.raises(OutOfMemoryError):
            choose_home_nodes(machine, 2, 100, preferred=[9])

    def test_packs_minimally(self, machine):
        nodes = choose_home_nodes(machine, 2, 100)
        assert len(nodes) == 1

    def test_grows_with_demand(self, machine):
        nodes = choose_home_nodes(machine, 8, 4 * 8192)
        assert len(nodes) == 4

    def test_reserved_cpus_respected(self, machine):
        with pytest.raises(OutOfMemoryError):
            choose_home_nodes(machine, 8, 100, reserved_cpus=range(8))

    def test_impossible_memory_rejected(self, machine):
        with pytest.raises(OutOfMemoryError):
            choose_home_nodes(machine, 1, 10_000_000)
