"""The paravirtual guest patch: batched page-event reporting.

This is the guest half of the paper's external interface (the modified
Linux of the authors' ``linux-xen-ft`` tree): hooks in the page allocator
record every physical page allocation and release into the partitioned
queue, and full queues are flushed to the hypervisor with the
``NUMA_PAGE_EVENTS`` hypercall — while holding the queue lock, so a queued
free page cannot be reallocated mid-flush (section 4.2.4).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.interface import ExternalInterface
from repro.core.page_queue import PageOp, PartitionedPageQueue
from repro.guest.page_alloc import GuestPageAllocator


class PvNumaPatch:
    """Wires a guest page allocator to the page-event hypercall.

    Args:
        allocator: the guest's physical page allocator.
        external: the guest-side hypercall stub.
        batch_size: events per partition before a flush.
        num_partitions: 4 in the paper (two LSBs of the PFN); 1 gives the
            single-global-queue design used in the ablation.
        enabled: a disabled patch records nothing (vanilla guest).
    """

    def __init__(
        self,
        allocator: GuestPageAllocator,
        external: ExternalInterface,
        batch_size: int = 64,
        num_partitions: int = 4,
        enabled: bool = True,
    ):
        self.allocator = allocator
        self.external = external
        self.enabled = enabled
        self.queue = PartitionedPageQueue(
            flush_fn=external.flush_page_events,
            flush_cost_fn=external.flush_cost,
            batch_size=batch_size,
            num_partitions=num_partitions,
        )
        allocator.on_alloc = self._on_alloc
        allocator.on_release = self._on_release
        allocator.on_alloc_many = self._on_alloc_many

    def _on_alloc(self, gpfn: int) -> None:
        if self.enabled:
            self.queue.record(PageOp.ALLOC, gpfn)

    def _on_alloc_many(self, gpfns: np.ndarray) -> None:
        if self.enabled:
            self.queue.record_many(PageOp.ALLOC, gpfns)

    def _on_release(self, gpfn: int) -> None:
        if self.enabled:
            self.queue.record(PageOp.RELEASE, gpfn)

    def flush(self) -> None:
        """Drain all partitions (used before policy switches/teardown)."""
        self.queue.flush_all()

    def report_free_pages(self) -> int:
        """Report the whole free list as released, then flush.

        Invoked right after switching the domain to first-touch, so the
        hypervisor can invalidate every page the guest is not using.
        Returns the number of pages reported.
        """
        free = np.fromiter(self.allocator.iter_free(), dtype=np.int64)
        self.queue.record_many(PageOp.RELEASE, free)
        self.queue.flush_all()
        return int(free.size)

    def select_policy(self, policy: str, carrefour: Optional[bool] = None):
        """Guest-initiated policy selection (first external hypercall)."""
        return self.external.set_policy(policy, carrefour)

    def detach(self) -> None:
        """Remove the hooks (guest shutdown)."""
        self.allocator.on_alloc = None
        self.allocator.on_release = None
        self.allocator.on_alloc_many = None
