"""The first-touch policy at the hypervisor level.

First-touch allocates a page on the node of the thread that first accesses
it (section 3.1). In a hypervisor this requires trapping the first access
of a *process* to a page, while the hypervisor only sees *physical* pages
of a VM — the mismatch of Figure 4. The fix (sections 4.2.2-4.2.4):

* the guest reports batched queues of page alloc/release events through
  the second hypercall of the external interface;
* on a release (newest-wins replay), the hypervisor invalidates the p2m
  entry and frees the machine frame;
* the next guest access to that physical page takes a *hypervisor* page
  fault; the fault handler asks this policy, which answers with the node
  of the faulting vCPU.

Because the policy deliberately keeps invalid p2m entries around, it is
incompatible with the IOMMU (section 4.4.1): :attr:`requires_iommu_disabled`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.interface import InternalInterface
from repro.core.page_queue import (
    PageEvent,
    PageEventBatch,
    newest_wins,
    replay_page_events,
)
from repro.core.policies.base import NumaPolicy
from repro.hypervisor.domain import Domain


class FirstTouchPolicy(NumaPolicy):
    """Hypervisor-level first-touch via the page-event hypercall."""

    name = "first-touch"

    #: The fault answer is always the faulting vCPU's node (see
    #: :meth:`on_hypervisor_fault`), which lets the fault handler resolve
    #: a whole array of init faults from one vCPU in a single batch.
    fault_node_is_vcpu_node = True

    def __init__(self, internal: InternalInterface, populate_lazily: bool = True):
        """
        Args:
            internal: the policy-side hypervisor interface.
            populate_lazily: when True, :meth:`populate` maps nothing and
                every first access faults (a domain *booted* under
                first-touch). When False the domain keeps whatever mapping
                it already has — the paper's common case, where a domain
                boots under round-4K and switches at run time; only pages
                released after the switch migrate to first-touch placement.
        """
        self.internal = internal
        self.populate_lazily = populate_lazily
        #: Pages invalidated through the event queue so far.
        self.pages_invalidated = 0
        #: Release events ignored because the page was re-allocated.
        self.reallocations_skipped = 0

    @property
    def wants_page_events(self) -> bool:
        return True

    @property
    def requires_iommu_disabled(self) -> bool:
        return True

    def populate(self, domain: Domain) -> None:
        """Leave the address space unmapped so first accesses fault."""
        if self.populate_lazily:
            self.internal.populate_empty(domain)
        else:
            domain.built = True

    def on_hypervisor_fault(
        self, domain: Domain, vcpu_id: int, gpfn: int, vcpu_node: int
    ) -> int:
        """First-touch proper: place the page on the faulting vCPU's node."""
        return vcpu_node

    def on_page_events(
        self, domain: Domain, events: Sequence[PageEvent]
    ) -> Tuple[int, int]:
        """Replay one flushed queue, newest entry first (section 4.2.4)."""
        if isinstance(events, PageEventBatch):
            release_gpfns, skipped = newest_wins(events)
            invalidated = self.internal.invalidate_pages(domain, release_gpfns)
        else:
            invalidated, skipped = replay_page_events(
                events, lambda gpfn: self.internal.invalidate_page(domain, gpfn)
            )
        self.pages_invalidated += invalidated
        self.reallocations_skipped += skipped
        return invalidated, skipped

    def describe(self) -> str:
        return (
            "first-touch: invalidate released pages, place faulting pages "
            "on the toucher's node"
        )
