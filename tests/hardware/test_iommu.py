"""IOMMU translation and the asynchronous error log."""

import pytest

from repro.hardware.iommu import Iommu
from repro.hypervisor.p2m import P2MTable


@pytest.fixture
def p2m():
    table = P2MTable(domain_id=1)
    table.set_entry(0, 100)
    table.set_entry(1, 101)
    return table


class TestTranslate:
    def test_valid_entry_translates(self, p2m):
        iommu = Iommu()
        result = iommu.translate(p2m, 0)
        assert result.ok and result.mfn == 100

    def test_absent_entry_faults(self, p2m):
        iommu = Iommu()
        result = iommu.translate(p2m, 42)
        assert not result.ok
        assert result.async_error.gpfn == 42
        assert result.async_error.domain_id == 1

    def test_invalidated_entry_faults(self, p2m):
        """The first-touch scenario: invalidated pages abort DMA."""
        iommu = Iommu()
        p2m.invalidate(0)
        result = iommu.translate(p2m, 0)
        assert not result.ok

    def test_disabled_iommu_raises(self, p2m):
        iommu = Iommu(enabled=False)
        with pytest.raises(RuntimeError):
            iommu.translate(p2m, 0)


class TestAsyncErrorLog:
    def test_errors_accumulate_until_drained(self, p2m):
        iommu = Iommu()
        iommu.translate(p2m, 40)
        iommu.translate(p2m, 41)
        events = iommu.drain_error_log()
        assert [e.gpfn for e in events] == [40, 41]
        assert iommu.drain_error_log() == []

    def test_error_is_not_raised_synchronously(self, p2m):
        """The hardware design choice of section 4.4.1: the hypervisor
        learns about the fault only after the fact."""
        iommu = Iommu()
        result = iommu.translate(p2m, 99)  # must not raise
        assert result.async_error is not None

    def test_stats(self, p2m):
        iommu = Iommu()
        iommu.translate(p2m, 0)
        iommu.translate(p2m, 77)
        assert iommu.translations == 2
        assert iommu.faults == 1
