"""The two interfaces between NUMA policies, hypervisor and guest.

Paper Figure 3 splits the world in two:

* the **internal interface** is how a policy manipulates memory *inside*
  the hypervisor — two functions (section 4.1):

  1. map the physical pages of a virtual machine to machine pages of
     chosen NUMA nodes (``populate_*`` at boot; first-touch maps each
     page in the hypervisor's fault path);
  2. migrate a physical page to a new NUMA node (``migrate_page``): write
     protect the entry, copy the frame, remap, free the old frame.

* the **external interface** is how a policy communicates with the *guest*
  — two hypercalls (section 4.2):

  1. select/switch the NUMA policy of the virtual machine
     (``NUMA_SET_POLICY``);
  2. report a queue of recently allocated and released physical pages
     (``NUMA_PAGE_EVENTS``), needed by first-touch to trap first accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.core.page_queue import PageEventBatch
from repro.hardware.machine import Machine
from repro.hypervisor.allocator import XenHeapAllocator
from repro.hypervisor.domain import Domain
from repro.hypervisor.hypercalls import Hypercall, HypercallTable


@dataclass
class MigrationRecord:
    """Bookkeeping for one completed page migration."""

    domain_id: int
    gpfn: int
    src_node: int
    dst_node: int


class InternalInterface:
    """Policy-side handle on the hypervisor's memory machinery.

    All placement goes through the hypervisor page table: the guest keeps
    mapping virtual pages to whatever physical pages it likes; the policy
    maps/migrates those *physical* pages onto machine frames of the nodes
    it chooses (paper section 4.1).

    Args:
        machine: the hardware (frame allocation, node lookup, copy cost).
        allocator: the Xen heap.
        page_copy_seconds: cost of copying one (simulated) page during a
            migration; derived from the controller bandwidth when omitted.
    """

    def __init__(
        self,
        machine: Machine,
        allocator: XenHeapAllocator,
        page_copy_seconds: Optional[float] = None,
    ):
        self.machine = machine
        self.allocator = allocator
        if page_copy_seconds is None:
            # One read + one write of the page through a controller.
            bw = machine.topology.memory_controller_gib_s * (1 << 30)
            page_copy_seconds = 2.0 * machine.config.page_bytes / bw
        self.page_copy_seconds = page_copy_seconds
        self.migration_log: List[MigrationRecord] = []
        #: Seconds spent copying pages (charged to the run by the engine).
        self.migration_seconds = 0.0

    # ------------------------------------------------------------------
    # Function 1: map a physical page to a NUMA node

    def invalidate_page(self, domain: Domain, gpfn: int) -> bool:
        """Invalidate ``gpfn`` and return its frame to the heap.

        This is the building block of first-touch (section 4.2.3): the next
        guest access faults into the hypervisor. Returns False if the entry
        was already invalid (e.g. a double release).
        """
        mfn = domain.p2m.invalidate(gpfn)
        if mfn is None:
            return False
        self.allocator.free_page(mfn)
        return True

    def invalidate_pages(self, domain: Domain, gpfns: Sequence[int]) -> int:
        """Bulk :meth:`invalidate_page` over a gpfn array.

        Returns how many entries were actually invalidated (already
        invalid entries are skipped, exactly like the scalar loop).
        """
        _, mfns = domain.p2m.invalidate_many(gpfns)
        if mfns.size:
            self.allocator.free_pages(mfns)
        return int(mfns.size)

    # ------------------------------------------------------------------
    # Whole-domain population (function 1 applied wholesale): the static
    # boot-time policies use these so they never touch the heap directly.

    def populate_round_1g(self, domain: Domain) -> None:
        """Eagerly back the domain in 1 GiB regions (Xen's default)."""
        self.allocator.populate_round_1g(domain)

    def populate_round_4k(self, domain: Domain) -> None:
        """Eagerly back the domain page-by-page round-robin."""
        self.allocator.populate_round_4k(domain)

    def populate_empty(self, domain: Domain) -> None:
        """Leave the domain unmapped so every first access faults."""
        self.allocator.populate_empty(domain)

    # ------------------------------------------------------------------
    # Function 2: migrate a physical page to a new NUMA node

    def migrate_page(self, domain: Domain, gpfn: int, dst_node: int) -> bool:
        """Move the frame backing ``gpfn`` to ``dst_node``.

        Sequence (paper section 4.1): write-protect the entry so concurrent
        guest writes trap, copy the page, update the entry, free the old
        frame. Returns False when the page cannot or need not move
        (invalid entry, already on the target node, or allocation failure).
        """
        entry = domain.p2m.lookup(gpfn)
        if entry is None or not entry.valid:
            return False
        src_node = self.machine.node_of_frame(entry.mfn)
        if src_node == dst_node:
            return False
        new_mfn = self.machine.memory.alloc_frames(dst_node, 1)
        if new_mfn is None:
            return False
        domain.p2m.write_protect(gpfn)
        # The copy happens while the entry is read-only; we only account
        # its duration.
        self.migration_seconds += self.page_copy_seconds
        old_mfn = domain.p2m.remap(gpfn, new_mfn)
        self.allocator.free_page(old_mfn)
        self.migration_log.append(
            MigrationRecord(domain.domain_id, gpfn, src_node, dst_node)
        )
        return True

    # ------------------------------------------------------------------
    # Queries

    def nodes_of_gpfns(self, domain: Domain, gpfns) -> np.ndarray:
        """NUMA node currently backing each gpfn, -1 where unmapped."""
        return domain.p2m.nodes_of(gpfns)

    def take_migration_seconds(self) -> float:
        """Return and reset the accumulated migration copy time."""
        seconds, self.migration_seconds = self.migration_seconds, 0.0
        return seconds


class ExternalInterface:
    """Guest-side stub of the two new hypercalls.

    The guest kernel (our :mod:`repro.guest.pv_patch`) holds one of these;
    calls go through the hypervisor's hypercall table exactly like any
    other hypercall, and their cost is accounted by the cost model.

    Args:
        hypercalls: the hypervisor's dispatch table.
        domain_id: the calling domain.
    """

    def __init__(self, hypercalls: HypercallTable, domain_id: int):
        self.hypercalls = hypercalls
        self.domain_id = domain_id

    def set_policy(
        self,
        policy: str,
        carrefour: Optional[bool] = None,
        vcpu_id: int = 0,
    ) -> Any:
        """Select the domain's NUMA policy / toggle Carrefour.

        Mirrors section 4.2.1: the hypercall can switch to first-touch and
        activate/deactivate Carrefour; round-1G is boot-time only.
        """
        args = {"policy": policy, "carrefour": carrefour}
        return self.hypercalls.dispatch(
            Hypercall.NUMA_SET_POLICY, self.domain_id, vcpu_id, args
        )

    def flush_page_events(self, events: Sequence[Any], vcpu_id: int = 0) -> Any:
        """Send one batched queue of page alloc/release events."""
        if not isinstance(events, PageEventBatch):
            events = list(events)
        return self.hypercalls.dispatch(
            Hypercall.NUMA_PAGE_EVENTS, self.domain_id, vcpu_id, events
        )

    def flush_cost(self, num_events: int) -> float:
        """Predicted duration of one flush (used by the queue's lock model)."""
        return self.hypercalls.costs.flush_cost(num_events)
