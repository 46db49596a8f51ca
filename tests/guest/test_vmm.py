"""Guest virtual memory: VMAs, lazy allocation, faults."""

import pytest

from repro.errors import GuestFaultError
from repro.guest.process import Process, Thread
from repro.guest.vmm import GuestAddressSpace


@pytest.fixture
def aspace():
    frames = iter(range(1000, 2000))
    released = []
    space = GuestAddressSpace(
        backing=lambda vpfn, thread: next(frames),
        release=released.append,
    )
    space.released = released
    return space


@pytest.fixture
def thread():
    return Thread(tid=0, vcpu_id=0)


class TestVma:
    def test_mmap_allocates_nothing(self, aspace):
        vma = aspace.mmap("heap", 10)
        assert vma.num_pages == 10
        assert all(aspace.translate(v) is None for v in range(vma.start_vpfn, vma.end_vpfn))

    def test_vmas_do_not_overlap(self, aspace):
        a = aspace.mmap("a", 10)
        b = aspace.mmap("b", 10)
        assert a.end_vpfn <= b.start_vpfn

    def test_zero_pages_rejected(self, aspace):
        with pytest.raises(GuestFaultError):
            aspace.mmap("x", 0)

    def test_contains(self, aspace):
        vma = aspace.mmap("x", 4)
        assert vma.start_vpfn in vma
        assert vma.end_vpfn not in vma


class TestTouch:
    def test_first_touch_faults(self, aspace, thread):
        vma = aspace.mmap("heap", 4)
        frame = aspace.touch(vma.start_vpfn, thread)
        assert frame == 1000
        assert aspace.guest_faults == 1
        assert aspace.translate(vma.start_vpfn) == frame

    def test_second_touch_is_free(self, aspace, thread):
        vma = aspace.mmap("heap", 4)
        first = aspace.touch(vma.start_vpfn, thread)
        second = aspace.touch(vma.start_vpfn, thread)
        assert first == second
        assert aspace.guest_faults == 1

    def test_unmapped_address_segfaults(self, aspace, thread):
        with pytest.raises(GuestFaultError, match="segfault"):
            aspace.touch(5, thread)

    def test_translate_before_touch_is_none(self, aspace, thread):
        vma = aspace.mmap("heap", 4)
        assert aspace.translate(vma.start_vpfn) is None


class TestUnmap:
    def test_unmap_releases_frame(self, aspace, thread):
        vma = aspace.mmap("heap", 4)
        frame = aspace.touch(vma.start_vpfn, thread)
        assert aspace.unmap_page(vma.start_vpfn)
        assert aspace.released == [frame]
        assert aspace.translate(vma.start_vpfn) is None

    def test_unmap_untouched_is_noop(self, aspace):
        vma = aspace.mmap("heap", 4)
        assert not aspace.unmap_page(vma.start_vpfn)

    def test_retouch_after_unmap_faults_again(self, aspace, thread):
        vma = aspace.mmap("heap", 4)
        aspace.touch(vma.start_vpfn, thread)
        aspace.unmap_page(vma.start_vpfn)
        frame = aspace.touch(vma.start_vpfn, thread)
        assert frame == 1001
        assert aspace.guest_faults == 2


class TestProcess:
    def test_master_requires_threads(self, aspace):
        proc = Process("app", aspace)
        with pytest.raises(RuntimeError):
            _ = proc.master
