"""Xen's default NUMA policy: round-robin allocation of 1 GiB regions."""

from __future__ import annotations

from repro.core.interface import InternalInterface
from repro.core.policies.base import NumaPolicy
from repro.hypervisor.domain import Domain
from repro.util import RoundRobin


class Round1GPolicy(NumaPolicy):
    """Eager 1 GiB-granularity placement over the home nodes (section 3.3).

    Xen packs the domain's memory on its home nodes in 1 GiB regions,
    falling back to 2 MiB then 4 KiB on fragmentation; the first and last
    guest-physical GiB are always fragmented (BIOS / I/O windows). The
    policy is static: it never reacts to faults in normal operation (all
    pages are populated eagerly), and a stray fault is served round-robin
    from the home nodes.
    """

    name = "round-1g"

    def __init__(self, internal: InternalInterface):
        self.internal = internal
        self._fallback_rr: dict = {}

    def populate(self, domain: Domain) -> None:
        """Eagerly back the whole guest-physical space, 1 GiB at a time."""
        self.internal.populate_round_1g(domain)

    def on_hypervisor_fault(
        self, domain: Domain, vcpu_id: int, gpfn: int, vcpu_node: int
    ) -> int:
        rr = self._fallback_rr.setdefault(
            domain.domain_id, RoundRobin(domain.home_nodes)
        )
        return rr.next()
