"""The ballooning driver — and why it cannot drive first-touch.

Section 4.2.3: "We might want to use the ballooning driver to get that
knowledge [of page releases]. … However, when a guest operating system
releases a page through the ballooning driver, the guest can no longer
use that page. In our case, the guest operating system has to be able to
reallocate the free page to a new process at any time, which precludes
using the ballooning driver."

This module implements a faithful balloon: inflating it *surrenders*
guest pages to the hypervisor (their frames go back to the heap and the
guest loses the right to touch them); deflating asks pages back. The
integration test shows exactly the mismatch the paper describes — a
ballooned page cannot be handed to a new process without first deflating
through the hypervisor, while the page-event queue keeps the page usable
the whole time. No run path balloons, so the driver lives beside its
test rather than in ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.errors import HypercallError
from repro.hypervisor.allocator import XenHeapAllocator
from repro.hypervisor.domain import Domain


@dataclass
class BalloonStats:
    """Counters of one balloon driver."""

    inflations: int = 0
    deflations: int = 0
    pages_surrendered: int = 0
    pages_returned: int = 0


class BalloonDriver:
    """Per-domain memory balloon.

    Args:
        domain: the guest this balloon lives in.
        allocator: the hypervisor heap (surrendered frames return there).
    """

    def __init__(self, domain: Domain, allocator: XenHeapAllocator):
        self.domain = domain
        self.allocator = allocator
        self._ballooned: Set[int] = set()
        self.stats = BalloonStats()

    @property
    def ballooned_pages(self) -> int:
        """Pages currently surrendered to the hypervisor."""
        return len(self._ballooned)

    # ------------------------------------------------------------------

    def inflate(self, gpfns: List[int]) -> int:
        """Surrender pages to the hypervisor.

        The p2m entries are invalidated and the frames freed — the
        hypervisor may give them to another domain. From here on the
        guest MUST NOT touch these gpfns: that is the crucial difference
        from the page-event queue, which merely *informs* the hypervisor
        while the guest keeps the right to reallocate.
        """
        surrendered = 0
        for gpfn in gpfns:
            if gpfn in self._ballooned:
                continue
            mfn = self.domain.p2m.invalidate(gpfn)
            if mfn is not None:
                self.allocator.free_page(mfn)
            self._ballooned.add(gpfn)
            surrendered += 1
        self.stats.inflations += 1
        self.stats.pages_surrendered += surrendered
        return surrendered

    def deflate(self, gpfns: List[int]) -> int:
        """Ask pages back from the hypervisor.

        Each page needs a fresh frame (its old one may belong to someone
        else by now) — a hypervisor round trip the guest must take
        *before* it can reallocate the page to a process.
        """
        returned = 0
        for gpfn in gpfns:
            if gpfn not in self._ballooned:
                continue
            node = self.domain.home_nodes[0]
            mfn = self.allocator.alloc_page_on(node)
            self.domain.p2m.set_entry(gpfn, mfn)
            self._ballooned.discard(gpfn)
            returned += 1
        self.stats.deflations += 1
        self.stats.pages_returned += returned
        return returned

    def guest_use(self, gpfn: int) -> None:
        """The guest tries to give ``gpfn`` to a process.

        Raises:
            HypercallError: the page is ballooned — this is the paper's
                argument in one exception: the guest cannot reallocate a
                ballooned page "at any time".
        """
        if gpfn in self._ballooned:
            raise HypercallError(
                f"guest page {gpfn:#x} is ballooned away; deflate first "
                "(this is why first-touch cannot ride the balloon driver)"
            )
