"""The two virtual disk drivers: para-virtualised and PCI passthrough.

* :class:`ParavirtDriver` (section 2.2.1): the guest's modified driver
  calls the hypervisor, which forwards the request to dom0; dom0 touches
  the real device and hands the result back. Every block pays the full
  dom0 round trip — the 307 us per 4 KiB block.
* :class:`PassthroughDriver` (section 2.2.2): the device DMAs directly
  into guest memory via the IOMMU — 186 us per 4 KiB block — but aborts
  on invalid p2m entries, so it cannot coexist with first-touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config import SimConfig
from repro.hypervisor.domain import Domain
from repro.vio.disk import DiskModel, IoMode
from repro.vio.dma import DmaEngine


@dataclass
class ReadResult:
    """One completed (or failed) guest read."""

    nbytes: int
    seconds: float
    ok: bool = True
    io_errors: int = 0


class ParavirtDriver:
    """domU disk access forwarded through dom0."""

    mode = IoMode.PARAVIRT

    def __init__(self, disk: DiskModel, dom0: Domain):
        self.disk = disk
        self.dom0 = dom0
        self.bytes_read = 0

    def read(self, domain: Domain, nbytes: int, block_bytes: int = 64 * 1024) -> ReadResult:
        """Read ``nbytes`` for ``domain`` via dom0 (always succeeds)."""
        seconds = self.disk.read_seconds(nbytes, block_bytes, self.mode)
        self.bytes_read += nbytes
        return ReadResult(nbytes=nbytes, seconds=seconds)


class PassthroughDriver:
    """domU disk access via PCI passthrough + IOMMU DMA.

    Args:
        disk: timing model.
        dma: the DMA engine (device side).
        config: for page-size arithmetic.
    """

    mode = IoMode.PASSTHROUGH

    def __init__(self, disk: DiskModel, dma: DmaEngine, config: SimConfig):
        self.disk = disk
        self.dma = dma
        self.config = config
        self.bytes_read = 0
        self.io_errors = 0

    def read_into(
        self, domain: Domain, gpfns: Sequence[int], block_bytes: int = 64 * 1024
    ) -> ReadResult:
        """DMA device data into specific guest pages.

        Pages with invalid p2m entries fail with a guest-visible I/O
        error (the first-touch incompatibility, section 4.4.1).
        """
        transfer = self.dma.dma_to_guest(domain, gpfns)
        nbytes = transfer.completed_pages * self.config.page_bytes
        seconds = self.disk.read_seconds(
            max(nbytes, self.config.page_bytes), block_bytes, self.mode
        )
        self.bytes_read += nbytes
        self.io_errors += len(transfer.failed_gpfns)
        return ReadResult(
            nbytes=nbytes,
            seconds=seconds,
            ok=transfer.ok,
            io_errors=len(transfer.failed_gpfns),
        )

    def read(self, domain: Domain, nbytes: int, block_bytes: int = 64 * 1024) -> ReadResult:
        """Bulk read without naming pages (assumes valid DMA buffers)."""
        seconds = self.disk.read_seconds(nbytes, block_bytes, self.mode)
        self.bytes_read += nbytes
        return ReadResult(nbytes=nbytes, seconds=seconds)
