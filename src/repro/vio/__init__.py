"""Virtualised I/O: disk model, DMA through the IOMMU, the two drivers."""

from repro.vio.disk import DiskModel, IoMode
from repro.vio.dma import DmaEngine, DmaTransfer
from repro.vio.drivers import ParavirtDriver, PassthroughDriver

__all__ = [
    "DiskModel",
    "IoMode",
    "DmaEngine",
    "DmaTransfer",
    "ParavirtDriver",
    "PassthroughDriver",
]
