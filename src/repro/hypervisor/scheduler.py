"""vCPU scheduler: pinning and fair time-sharing of physical CPUs.

Every experiment in the paper pins vCPUs to pCPUs to remove scheduler noise
(sections 5.4.1, 5.4.2): with a single VM each pCPU runs one vCPU; in the
consolidated 2x48-vCPU setup each pCPU runs exactly two vCPUs, one per
domain, and Xen's credit scheduler shares it fairly. The scheduler exposes
the per-vCPU *CPU share*, which the simulation engine uses to scale thread
progress, and validates placement requests.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.errors import SchedulerError
from repro.hypervisor.domain import Domain, VCpu

VcpuKey = Tuple[int, int]  # (domain_id, vcpu_id)


class Scheduler:
    """Tracks which vCPUs run on which physical CPUs.

    Args:
        num_pcpus: physical CPU count of the machine.
    """

    def __init__(self, num_pcpus: int):
        self.num_pcpus = num_pcpus
        self._placement: Dict[VcpuKey, int] = {}
        self._runqueues: Dict[int, List[VcpuKey]] = defaultdict(list)
        #: Bumped on every placement change. CPU shares can only change
        #: when a runqueue does, so caches keyed on (scheduler, version)
        #: — the multi-run gather cache — stay exact without re-reading
        #: every thread's share each epoch.
        self.version = 0

    # ------------------------------------------------------------------
    # Placement

    def pin(self, vcpu: VCpu, pcpu: int) -> None:
        """Hard-pin ``vcpu`` to ``pcpu`` (moving it if already placed)."""
        if not 0 <= pcpu < self.num_pcpus:
            raise SchedulerError(f"pcpu {pcpu} out of range")
        self.remove(vcpu)
        vcpu.pinned_pcpu = pcpu
        self._placement[vcpu.key] = pcpu
        self._runqueues[pcpu].append(vcpu.key)
        self.version += 1

    def pin_domain(self, domain: Domain, pcpus: Sequence[int]) -> None:
        """Pin a domain's vCPUs 1:1 onto ``pcpus``."""
        if len(pcpus) != domain.num_vcpus:
            raise SchedulerError(
                f"domain {domain.name} has {domain.num_vcpus} vCPUs, "
                f"got {len(pcpus)} pCPUs"
            )
        for vcpu, pcpu in zip(domain.vcpus, pcpus):
            self.pin(vcpu, pcpu)

    def remove(self, vcpu: VCpu) -> None:
        """Take ``vcpu`` off its pCPU (no-op if unplaced)."""
        pcpu = self._placement.pop(vcpu.key, None)
        if pcpu is not None:
            self._runqueues[pcpu].remove(vcpu.key)
            self.version += 1

    def remove_domain(self, domain: Domain) -> None:
        """Unplace every vCPU of ``domain``."""
        for vcpu in domain.vcpus:
            self.remove(vcpu)

    # ------------------------------------------------------------------
    # Queries

    def pcpu_of(self, vcpu: VCpu) -> int:
        """The physical CPU currently hosting ``vcpu``."""
        try:
            return self._placement[vcpu.key]
        except KeyError:
            raise SchedulerError(f"vcpu {vcpu.key} is not placed") from None

    def cpu_share(self, vcpu: VCpu) -> float:
        """Fraction of its pCPU this vCPU receives (credit fair share)."""
        pcpu = self.pcpu_of(vcpu)
        sharers = len(self._runqueues[pcpu])
        return 1.0 / sharers if sharers else 0.0

    def occupied_pcpus(self) -> Tuple[int, ...]:
        """Physical CPUs with at least one vCPU."""
        return tuple(sorted(p for p, q in self._runqueues.items() if q))
