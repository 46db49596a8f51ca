"""Section 4.4.1 end to end: first-touch breaks PCI passthrough DMA.

The story: a domU under Xen+ uses the passthrough driver. The
administrator switches it to first-touch; the guest reports its free
pages; the hypervisor invalidates their p2m entries. A device DMA into
such a page now aborts with a guest-visible I/O error, and the hypervisor
only learns about it from the asynchronous IOMMU log — too late to fix.
This is why the evaluation disables passthrough whenever first-touch runs.
"""

import pytest

from repro.core.interface import ExternalInterface
from repro.core.policies.base import PolicyName
from repro.guest.page_alloc import GuestPageAllocator
from repro.guest.pv_patch import PvNumaPatch
from repro.hypervisor.xen import Hypervisor, XEN_PLUS
from repro.vio.dma import DmaEngine
from repro.vio.drivers import PassthroughDriver
from repro.vio.disk import DiskModel

from tests.conftest import small_machine


@pytest.fixture
def stack():
    machine = small_machine(num_nodes=4, cpus_per_node=2, frames_per_node=2048)
    hypervisor = Hypervisor(machine, features=XEN_PLUS)
    domain = hypervisor.create_domain("db", num_vcpus=2, memory_pages=256)
    allocator = GuestPageAllocator(first_gpfn=0, num_pages=256)
    external = ExternalInterface(hypervisor.hypercalls, domain.domain_id)
    patch = PvNumaPatch(allocator, external)
    driver = PassthroughDriver(
        DiskModel(), DmaEngine(machine.iommu), machine.config
    )
    return machine, hypervisor, domain, allocator, patch, driver


class TestIommuConflict:
    def test_dma_works_under_round_4k(self, stack):
        machine, hv, domain, allocator, patch, driver = stack
        buf = [allocator.alloc() for _ in range(4)]
        result = driver.read_into(domain, buf)
        assert result.ok
        assert hv.io_mode(domain) == "passthrough"

    def test_first_touch_invalidation_breaks_dma(self, stack):
        machine, hv, domain, allocator, patch, driver = stack
        # Switch to first-touch; the guest reports its free list.
        patch.select_policy(PolicyName.FIRST_TOUCH.value)
        patch.report_free_pages()
        # A DMA buffer allocated *now* is a freshly-invalidated page the
        # CPU has not yet touched.
        buf = [allocator.alloc() for _ in range(4)]
        patch.flush()
        result = driver.read_into(domain, buf)
        assert not result.ok
        assert result.io_errors > 0
        # The guest already saw the error; the hypervisor's log catches up
        # asynchronously.
        events = machine.iommu.drain_error_log()
        assert {e.gpfn for e in events} <= set(buf)

    def test_io_mode_reports_fallback(self, stack):
        """hypervisor.io_mode is how the evaluation avoids the trap."""
        machine, hv, domain, allocator, patch, driver = stack
        assert hv.io_mode(domain) == "passthrough"
        patch.select_policy(PolicyName.FIRST_TOUCH.value)
        assert hv.io_mode(domain) == "paravirt"

    def test_cpu_touch_then_dma_is_fine(self, stack):
        """Pages the CPU has faulted back in DMA correctly again."""
        machine, hv, domain, allocator, patch, driver = stack
        patch.select_policy(PolicyName.FIRST_TOUCH.value)
        patch.report_free_pages()
        buf = [allocator.alloc() for _ in range(2)]
        patch.flush()
        for gpfn in buf:
            hv.guest_access(domain, 0, gpfn)  # CPU touch faults pages in
        result = driver.read_into(domain, buf)
        assert result.ok
