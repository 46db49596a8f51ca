"""The round-4K policy: static page-granularity round-robin."""

from __future__ import annotations

from repro.core.interface import InternalInterface
from repro.core.policies.base import NumaPolicy
from repro.hypervisor.domain import Domain
from repro.util import RoundRobin


class Round4KPolicy(NumaPolicy):
    """Static 4 KiB round-robin over the home nodes (section 3.2).

    Balances load on all memory controllers at the price of many remote
    accesses. In our modified Xen this is the *boot default* of every
    domain (section 4.2.1); it is implemented with the internal interface
    by statically allocating pages round-robin at domain creation
    (section 4.3).
    """

    name = "round-4k"

    def __init__(self, internal: InternalInterface):
        self.internal = internal
        self._fault_rr: dict = {}

    def populate(self, domain: Domain) -> None:
        """Back every guest-physical page, one page per node in turn."""
        self.internal.populate_round_4k(domain)

    def on_hypervisor_fault(
        self, domain: Domain, vcpu_id: int, gpfn: int, vcpu_node: int
    ) -> int:
        # All pages are eagerly populated; a fault only happens for pages
        # invalidated by a previous first-touch phase. Keep the round-robin
        # invariant for those.
        rr = self._fault_rr.setdefault(
            domain.domain_id, RoundRobin(domain.home_nodes)
        )
        return rr.next()
