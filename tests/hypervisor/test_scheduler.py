"""vCPU scheduler: pinning, runqueues and fair shares."""

import pytest

from repro.errors import SchedulerError
from repro.hypervisor.domain import Domain
from repro.hypervisor.scheduler import Scheduler


@pytest.fixture
def scheduler():
    return Scheduler(num_pcpus=4)


def domain(domid, vcpus):
    return Domain(
        domain_id=domid, name=f"d{domid}", num_vcpus=vcpus,
        memory_pages=10, home_nodes=(0,),
    )


class TestPinning:
    def test_pin_and_lookup(self, scheduler):
        d = domain(1, 2)
        scheduler.pin(d.vcpus[0], 3)
        assert scheduler.pcpu_of(d.vcpus[0]) == 3
        assert d.vcpus[0].pinned_pcpu == 3

    def test_pin_out_of_range(self, scheduler):
        d = domain(1, 1)
        with pytest.raises(SchedulerError):
            scheduler.pin(d.vcpus[0], 9)

    def test_repin_moves(self, scheduler):
        d = domain(1, 1)
        scheduler.pin(d.vcpus[0], 0)
        scheduler.pin(d.vcpus[0], 1)
        assert scheduler.pcpu_of(d.vcpus[0]) == 1
        assert scheduler.occupied_pcpus() == (1,)

    def test_pin_domain_1to1(self, scheduler):
        d = domain(1, 4)
        scheduler.pin_domain(d, [0, 1, 2, 3])
        assert [scheduler.pcpu_of(v) for v in d.vcpus] == [0, 1, 2, 3]

    def test_pin_domain_wrong_count(self, scheduler):
        d = domain(1, 3)
        with pytest.raises(SchedulerError):
            scheduler.pin_domain(d, [0, 1])

    def test_unplaced_lookup_rejected(self, scheduler):
        d = domain(1, 1)
        with pytest.raises(SchedulerError):
            scheduler.pcpu_of(d.vcpus[0])


class TestSharing:
    def test_dedicated_share_is_one(self, scheduler):
        d = domain(1, 1)
        scheduler.pin(d.vcpus[0], 0)
        assert scheduler.cpu_share(d.vcpus[0]) == 1.0

    def test_consolidated_share_is_half(self, scheduler):
        """The Figure 9 setup: two vCPUs per pCPU, fair credit shares."""
        d1, d2 = domain(1, 2), domain(2, 2)
        scheduler.pin_domain(d1, [0, 1])
        scheduler.pin_domain(d2, [0, 1])
        for v in d1.vcpus + d2.vcpus:
            assert scheduler.cpu_share(v) == 0.5

    def test_remove_domain_restores_share(self, scheduler):
        d1, d2 = domain(1, 1), domain(2, 1)
        scheduler.pin(d1.vcpus[0], 0)
        scheduler.pin(d2.vcpus[0], 0)
        scheduler.remove_domain(d2)
        assert scheduler.cpu_share(d1.vcpus[0]) == 1.0

    def test_occupied_pcpus(self, scheduler):
        d = domain(1, 2)
        scheduler.pin_domain(d, [1, 3])
        assert scheduler.occupied_pcpus() == (1, 3)
