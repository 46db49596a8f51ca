"""The para-virtualised and passthrough disk drivers."""

import pytest

from repro.config import SimConfig
from repro.hardware.iommu import Iommu
from repro.hypervisor.domain import Domain
from repro.vio.disk import DiskModel
from repro.vio.dma import DmaEngine
from repro.vio.drivers import ParavirtDriver, PassthroughDriver


@pytest.fixture
def domain():
    d = Domain(domain_id=1, name="d", num_vcpus=1, memory_pages=16, home_nodes=(0,))
    for gpfn in range(16):
        d.p2m.set_entry(gpfn, 200 + gpfn)
    return d


@pytest.fixture
def dom0():
    return Domain(domain_id=0, name="dom0", num_vcpus=1, memory_pages=4, home_nodes=(0,))


class TestParavirt:
    def test_read_costs_pv_time(self, domain, dom0):
        disk = DiskModel()
        driver = ParavirtDriver(disk, dom0)
        result = driver.read(domain, 4096, block_bytes=4096)
        assert result.ok
        assert result.seconds == pytest.approx(307e-6)
        assert driver.bytes_read == 4096


class TestPassthrough:
    def test_read_into_valid_pages(self, domain):
        config = SimConfig(page_scale=1)
        driver = PassthroughDriver(DiskModel(), DmaEngine(Iommu()), config)
        result = driver.read_into(domain, [0, 1], block_bytes=4096)
        assert result.ok
        assert result.nbytes == 2 * 4096

    def test_read_into_invalid_page_reports_io_error(self, domain):
        """First-touch invalidation makes passthrough I/O fail."""
        config = SimConfig(page_scale=1)
        driver = PassthroughDriver(DiskModel(), DmaEngine(Iommu()), config)
        domain.p2m.invalidate(1)
        result = driver.read_into(domain, [0, 1], block_bytes=4096)
        assert not result.ok
        assert result.io_errors == 1
        assert driver.io_errors == 1

    def test_bulk_read_faster_than_pv(self, domain, dom0):
        disk = DiskModel()
        config = SimConfig(page_scale=1)
        pt = PassthroughDriver(disk, DmaEngine(Iommu()), config)
        pv = ParavirtDriver(disk, dom0)
        assert (
            pt.read(domain, 1 << 20).seconds < pv.read(domain, 1 << 20).seconds
        )
