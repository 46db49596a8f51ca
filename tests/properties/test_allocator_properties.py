"""Property-based tests of the guest page allocator."""

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import OutOfMemoryError
from repro.guest.page_alloc import GuestPageAllocator

PAGES = 64


class GuestAllocatorMachine(RuleBasedStateMachine):
    """Alloc/free sequences keep the free list consistent."""

    def __init__(self):
        super().__init__()
        self.alloc = GuestPageAllocator(first_gpfn=100, num_pages=PAGES)
        self.live = set()
        self.events = []
        self.alloc.on_alloc = lambda g: self.events.append(("a", g))
        self.alloc.on_release = lambda g: self.events.append(("r", g))

    @rule()
    def allocate(self):
        if self.alloc.free_pages == 0:
            return
        gpfn = self.alloc.alloc()
        assert gpfn not in self.live, "allocator handed out a live page"
        assert 100 <= gpfn < 100 + PAGES
        self.live.add(gpfn)

    @rule(data=st.data())
    def release(self, data):
        if not self.live:
            return
        gpfn = data.draw(st.sampled_from(sorted(self.live)))
        self.live.discard(gpfn)
        self.alloc.free(gpfn)

    @rule(data=st.data())
    def free_of_a_free_page_rejected(self, data):
        free = sorted(set(range(100, 100 + PAGES)) - self.live)
        if not free:
            return
        gpfn = data.draw(st.sampled_from(free))
        before = self.alloc.free_pages
        with pytest.raises(OutOfMemoryError, match="double free"):
            self.alloc.free(gpfn)
        assert self.alloc.free_pages == before

    @invariant()
    def accounting_consistent(self):
        assert self.alloc.free_pages == PAGES - len(self.live)

    @invariant()
    def free_list_disjoint_from_live(self):
        free = set(self.alloc.iter_free())
        assert not (free & self.live)
        assert len(free) == self.alloc.free_pages

    @invariant()
    def hooks_saw_every_transition(self):
        balance = {}
        for kind, gpfn in self.events:
            balance[gpfn] = balance.get(gpfn, 0) + (1 if kind == "a" else -1)
        for gpfn in self.live:
            assert balance.get(gpfn) == 1
        for gpfn, value in balance.items():
            assert value in (0, 1)


TestGuestAllocatorMachine = GuestAllocatorMachine.TestCase
