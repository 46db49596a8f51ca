"""The balloon driver and the paper's argument against using it."""

import pytest

from repro.core.interface import ExternalInterface
from repro.core.policies.base import PolicyName
from repro.errors import HypercallError
from repro.guest.page_alloc import GuestPageAllocator
from repro.guest.pv_patch import PvNumaPatch
from tests.hypervisor.ballooning import BalloonDriver


@pytest.fixture
def setup(hypervisor):
    domain = hypervisor.create_domain("t", num_vcpus=2, memory_pages=128)
    balloon = BalloonDriver(domain, hypervisor.allocator)
    return hypervisor, domain, balloon


class TestBalloonMechanics:
    def test_inflate_surrenders_frames(self, setup):
        hv, domain, balloon = setup
        machine = hv.machine
        free_before = sum(
            machine.memory.free_frames_on(n) for n in range(machine.num_nodes)
        )
        assert balloon.inflate([1, 2, 3]) == 3
        free_after = sum(
            machine.memory.free_frames_on(n) for n in range(machine.num_nodes)
        )
        assert free_after == free_before + 3
        assert balloon.ballooned_pages == 3
        for gpfn in (1, 2, 3):
            assert domain.p2m.mfn_if_valid(gpfn) == -1

    def test_double_inflate_idempotent(self, setup):
        hv, domain, balloon = setup
        balloon.inflate([1])
        assert balloon.inflate([1]) == 0

    def test_deflate_restores_pages(self, setup):
        hv, domain, balloon = setup
        balloon.inflate([1, 2])
        assert balloon.deflate([1, 2]) == 2
        assert balloon.ballooned_pages == 0
        assert domain.p2m.mfn_if_valid(1) != -1

    def test_deflate_unknown_pages_ignored(self, setup):
        hv, domain, balloon = setup
        assert balloon.deflate([5]) == 0


class TestThePapersArgument:
    """Section 4.2.3: why first-touch rides a new hypercall instead."""

    def test_ballooned_page_unusable_by_guest(self, setup):
        """A ballooned page cannot be reallocated 'at any time'."""
        hv, domain, balloon = setup
        balloon.inflate([7])
        with pytest.raises(HypercallError, match="deflate first"):
            balloon.guest_use(7)

    def test_page_queue_keeps_page_usable(self, setup):
        """The paper's alternative: report the release through the event
        queue — the hypervisor invalidates the entry, but the guest may
        immediately reallocate the page; the next access simply faults."""
        hv, domain, balloon = setup
        guest_alloc = GuestPageAllocator(first_gpfn=0, num_pages=64)
        external = ExternalInterface(hv.hypercalls, domain.domain_id)
        PvNumaPatch(guest_alloc, external, batch_size=1)  # hooks guest_alloc
        hv.set_policy(domain, PolicyName.FIRST_TOUCH)
        gpfn = guest_alloc.alloc()
        guest_alloc.free(gpfn)          # reported + invalidated (batch=1)
        assert domain.p2m.mfn_if_valid(gpfn) == -1
        # The guest can reallocate right away — no hypervisor round trip.
        again = guest_alloc.alloc()
        assert again == gpfn
        # And the next access faults the page back in on the right node.
        mfn = hv.guest_access(domain, 1, gpfn)
        assert domain.p2m.mfn_if_valid(gpfn) == mfn != -1

    def test_deflate_needed_before_reuse(self, setup):
        hv, domain, balloon = setup
        balloon.inflate([9])
        balloon.deflate([9])
        balloon.guest_use(9)  # fine now — but it took a hypervisor trip
        assert balloon.stats.pages_surrendered == 1
        assert balloon.stats.pages_returned == 1
