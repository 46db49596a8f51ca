"""Guest page allocators: the oblivious free list and the native one."""

import pytest

from repro.errors import OutOfMemoryError
from repro.guest.page_alloc import GuestPageAllocator, NativePageAllocator
from tests.conftest import small_machine


class TestGuestAllocator:
    def test_sequential_bump(self):
        alloc = GuestPageAllocator(first_gpfn=100, num_pages=10)
        assert [alloc.alloc() for _ in range(3)] == [100, 101, 102]

    def test_lifo_reuse(self):
        """Recycled pages come back first (Linux per-CPU lists) — the
        behaviour behind the realloc-while-queued race of section 4.2.4."""
        alloc = GuestPageAllocator(first_gpfn=0, num_pages=10)
        a = alloc.alloc()
        b = alloc.alloc()
        alloc.free(b)
        alloc.free(a)
        assert alloc.alloc() == a
        assert alloc.alloc() == b

    def test_zero_on_free_counted(self):
        alloc = GuestPageAllocator(first_gpfn=0, num_pages=4)
        gpfn = alloc.alloc()
        alloc.free(gpfn)
        assert alloc.pages_zeroed == 1

    def test_zeroing_can_be_disabled(self):
        alloc = GuestPageAllocator(first_gpfn=0, num_pages=4, zero_on_free=False)
        alloc.free(alloc.alloc())
        assert alloc.pages_zeroed == 0

    def test_double_free_rejected(self):
        alloc = GuestPageAllocator(first_gpfn=0, num_pages=4)
        gpfn = alloc.alloc()
        alloc.free(gpfn)
        with pytest.raises(OutOfMemoryError):
            alloc.free(gpfn)

    def test_free_unallocated_rejected(self):
        alloc = GuestPageAllocator(first_gpfn=0, num_pages=4)
        with pytest.raises(OutOfMemoryError):
            alloc.free(2)

    def test_exhaustion(self):
        alloc = GuestPageAllocator(first_gpfn=0, num_pages=2)
        alloc.alloc()
        alloc.alloc()
        with pytest.raises(OutOfMemoryError):
            alloc.alloc()

    def test_counters(self):
        alloc = GuestPageAllocator(first_gpfn=0, num_pages=10)
        a = alloc.alloc()
        alloc.alloc()
        alloc.free(a)
        assert alloc.free_pages == 9

    def test_hooks_fire(self):
        events = []
        alloc = GuestPageAllocator(first_gpfn=0, num_pages=4)
        alloc.on_alloc = lambda g: events.append(("a", g))
        alloc.on_release = lambda g: events.append(("r", g))
        g = alloc.alloc()
        alloc.free(g)
        assert events == [("a", g), ("r", g)]

    def test_iter_free_covers_recycled_and_bump(self):
        alloc = GuestPageAllocator(first_gpfn=0, num_pages=5)
        a = alloc.alloc()
        alloc.alloc()
        alloc.free(a)
        free = set(alloc.iter_free())
        assert free == {a, 2, 3, 4}


class TestNativeAllocator:
    @pytest.fixture
    def machine(self):
        return small_machine(num_nodes=4, cpus_per_node=1, frames_per_node=64)

    def test_alloc_on_node(self, machine):
        alloc = NativePageAllocator(machine)
        mfn = alloc.alloc_on(2)
        assert machine.node_of_frame(mfn) == 2

    def test_round_robin(self, machine):
        alloc = NativePageAllocator(machine)
        nodes = [machine.node_of_frame(alloc.alloc_round_robin()) for _ in range(8)]
        assert nodes == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_fallback_when_full(self, machine):
        alloc = NativePageAllocator(machine)
        for _ in range(64):
            alloc.alloc_on(1)
        mfn = alloc.alloc_on(1)
        assert machine.node_of_frame(mfn) != 1
        assert alloc.fallback_allocations == 1

    def test_oom(self, machine):
        alloc = NativePageAllocator(machine)
        for _ in range(256):
            alloc.alloc_round_robin()
        with pytest.raises(OutOfMemoryError):
            alloc.alloc_on(0)

    def test_reserve_respected(self, machine):
        alloc = NativePageAllocator(machine, reserve_per_node=60)
        for _ in range(4):
            alloc.alloc_on(0)
        mfn = alloc.alloc_on(0)
        assert machine.node_of_frame(mfn) != 0

    def test_free_returns_to_node(self, machine):
        alloc = NativePageAllocator(machine)
        before = machine.memory.free_frames_on(3)
        mfn = alloc.alloc_on(3)
        alloc.free(mfn)
        assert machine.memory.free_frames_on(3) == before
