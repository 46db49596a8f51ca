"""The hypervisor page-fault path.

When a guest access reaches a gpfn whose p2m entry is invalid, the hardware
raises a fault into the hypervisor. The fault handler asks the domain's
NUMA policy where to place the page; the policy answers with a node, the
handler allocates a frame there and installs the entry. This is exactly how
first-touch works at the hypervisor level (paper section 4.2.3): released
pages get invalidated, so the next toucher's node receives the page.

Write faults on write-protected entries are the migration race guard
(section 4.1): the guest spins until the copy finishes and the entry is
remapped; we account their cost.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.errors import P2MError
from repro.hypervisor.allocator import XenHeapAllocator
from repro.hypervisor.domain import Domain
from repro.obs.metrics import cell_attr
from repro.util import accumulate_cost


class FaultStats:
    """Counters kept by the fault handler.

    Attribute-compatible with the dataclass this replaced, but each field
    is a view over a metric cell registered with the active observability
    session (:mod:`repro.obs`) — the arithmetic is unchanged, so counts
    and the ``seconds_spent`` float stay bit-identical.
    """

    __slots__ = ("_faults", "_wp_faults", "_seconds")

    def __init__(self) -> None:
        reg = obs.registry()
        self._faults = reg.counter("faults.hypervisor")
        self._wp_faults = reg.counter("faults.write_protection")
        self._seconds = reg.counter("faults.seconds_spent", value=0.0)

    hypervisor_faults = cell_attr("_faults")
    write_protection_faults = cell_attr("_wp_faults")
    seconds_spent = cell_attr("_seconds")


class FaultHandler:
    """Resolves hypervisor page faults through the domain's NUMA policy.

    Args:
        allocator: heap used to back faulting pages.
        fault_cost_seconds: guest exit + entry + table walk per fault.
    """

    def __init__(self, allocator: XenHeapAllocator, fault_cost_seconds: float = 2.0e-6):
        self.allocator = allocator
        self.fault_cost_seconds = fault_cost_seconds
        self.stats = FaultStats()

    def on_access(self, domain: Domain, vcpu_id: int, gpfn: int, node_of_vcpu: int) -> int:
        """Resolve one guest access; returns the backing mfn.

        Fast path: valid entry, no cost. Slow path: the domain's policy
        picks a node (first-touch answers ``node_of_vcpu``), the handler
        allocates and maps a frame there.
        """
        mfn = domain.p2m.mfn_if_valid(gpfn)
        if mfn >= 0:
            return mfn
        return self.handle_fault(domain, vcpu_id, gpfn, node_of_vcpu)

    def handle_fault(self, domain: Domain, vcpu_id: int, gpfn: int, node_of_vcpu: int) -> int:
        """Take the hypervisor fault path for ``gpfn``."""
        self.stats.hypervisor_faults += 1
        self.stats.seconds_spent += self.fault_cost_seconds
        policy = domain.numa_policy
        if policy is not None:
            node = policy.on_hypervisor_fault(domain, vcpu_id, gpfn, node_of_vcpu)
        else:
            # No policy: fall back to the first home node.
            node = domain.home_nodes[0]
        mfn = self.allocator.alloc_page_on(node)
        domain.p2m.set_entry(gpfn, mfn)
        return mfn

    def handle_faults(
        self,
        domain: Domain,
        vcpu_id: int,
        gpfns: np.ndarray,
        node_of_vcpu: int,
    ) -> Optional[np.ndarray]:
        """Take the fault path for a whole (all-invalid) gpfn array.

        Only usable when the policy's fault answer does not depend on the
        individual gpfn — policies advertise that with
        ``fault_node_is_vcpu_node`` (first-touch: the faulting vCPU's
        node). Returns None when the answer is per-page, in which case
        the caller must fault page by page; otherwise the stats, the
        frames and the entries come out exactly as the scalar loop's.
        """
        policy = domain.numa_policy
        if policy is None:
            node = domain.home_nodes[0]
        elif getattr(policy, "fault_node_is_vcpu_node", False):
            node = node_of_vcpu
        else:
            return None
        count = int(len(gpfns))
        if count == 0:
            return np.empty(0, dtype=np.int64)
        self.stats.hypervisor_faults += count
        self.stats.seconds_spent = accumulate_cost(
            self.stats.seconds_spent, self.fault_cost_seconds, count
        )
        mfns = self.allocator.alloc_pages_on(node, count)
        domain.p2m.set_entries(gpfns, mfns)
        tr = obs.tracer()
        if tr.enabled:
            tr.instant(
                "fault.storm",
                cat="hypervisor",
                domain=domain.domain_id,
                pages=count,
                node=int(node),
            )
        return mfns

    def on_write_protected(self, domain: Domain, gpfn: int, wait_seconds: float = 1.0e-6) -> None:
        """Account a write fault against a page being migrated.

        The fault is only legitimate mid-migration: the entry must be
        valid *and* write-protected. A write fault reported against a
        still-writable entry is a migration-protocol violation (the
        hardware could not have trapped that write) and is rejected
        before any accounting happens.
        """
        entry = domain.p2m.lookup(gpfn)
        if entry is None or not entry.valid:
            raise P2MError(f"write-protection fault on invalid gpfn {gpfn:#x}")
        if entry.writable:
            raise P2MError(
                f"write-protection fault on writable gpfn {gpfn:#x}: "
                f"no migration write-protected this entry"
            )
        sanitizer = domain.p2m.sanitizer
        if sanitizer is not None:
            sanitizer.write_protection_fault(domain.domain_id, gpfn)
        self.stats.write_protection_faults += 1
        self.stats.seconds_spent += wait_seconds
        tr = obs.tracer()
        if tr.enabled:
            tr.instant(
                "fault.write_protected",
                cat="hypervisor",
                domain=domain.domain_id,
                gpfn=int(gpfn),
            )
