"""IOMMU model.

The AMD IOMMU translates guest-physical DMA addresses to machine addresses
through the hypervisor page table, letting devices reach a domU's memory
without trapping into the hypervisor. Two properties matter for the paper:

* translation only works when the hypervisor page table entry is *valid* —
  the IOMMU cannot take a page fault on behalf of a device;
* translation errors are reported **asynchronously** (a hardware design
  choice), so by the time the hypervisor sees the error the guest has
  already observed a failed I/O (paper section 4.4.1). This is what makes
  the first-touch policy (which deliberately invalidates entries)
  incompatible with the IOMMU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.p2m import P2MTable


@dataclass(frozen=True)
class IommuErrorEvent:
    """Asynchronous error log entry produced by a failed translation."""

    domain_id: int
    gpfn: int


@dataclass
class DmaResult:
    """Outcome of one DMA translation attempt.

    Attributes:
        ok: True if the device obtained a machine address.
        mfn: the machine frame (when ok).
        async_error: the error event queued to the hypervisor (when not ok).
    """

    ok: bool
    mfn: Optional[int] = None
    async_error: Optional[IommuErrorEvent] = None


class Iommu:
    """Device-side address translation unit.

    Args:
        enabled: when False, devices cannot translate at all and every DMA
            must bounce through the hypervisor/dom0 (the slow PV path).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._error_log: List[IommuErrorEvent] = []
        self.translations = 0
        self.faults = 0

    def translate(self, p2m: "P2MTable", gpfn: int) -> DmaResult:
        """Translate a guest frame number for a device DMA.

        On an invalid entry, the transfer is aborted and an error event is
        appended to the asynchronous log — it is *not* raised, mirroring
        the hardware behaviour that defeats first-touch.
        """
        if not self.enabled:
            raise RuntimeError("IOMMU is disabled; use the para-virtualised path")
        self.translations += 1
        entry = p2m.lookup(gpfn)
        if entry is None or not entry.valid:
            self.faults += 1
            event = IommuErrorEvent(domain_id=p2m.domain_id, gpfn=gpfn)
            self._error_log.append(event)
            return DmaResult(ok=False, async_error=event)
        return DmaResult(ok=True, mfn=entry.mfn)

    def drain_error_log(self) -> List[IommuErrorEvent]:
        """Deliver pending asynchronous errors to the hypervisor.

        By construction this happens *after* the guest saw the failed I/O.
        """
        events, self._error_log = self._error_log, []
        return events
