"""Domains (virtual machines) and virtual CPUs.

Xen calls virtual machines *domains*: ``dom0`` is the privileged management
domain (it also drives I/O for the others), ``domU`` domains run guests.
A domain holds vCPUs, a guest-physical address space backed by the p2m
table, and — in this reproduction — the handle of its active NUMA policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.errors import DomainError
from repro.hypervisor.p2m import P2MTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.policies.base import NumaPolicy


@dataclass
class VCpu:
    """A virtual CPU of a domain.

    Attributes:
        domain_id: owning domain.
        vcpu_id: index inside the domain.
        pinned_pcpu: hard affinity to a physical CPU (the paper pins all
            vCPUs in every experiment to remove scheduler noise).
    """

    domain_id: int
    vcpu_id: int
    pinned_pcpu: Optional[int] = None

    @property
    def key(self) -> Tuple[int, int]:
        return (self.domain_id, self.vcpu_id)


class Domain:
    """A virtual machine.

    Args:
        domain_id: 0 for dom0, >0 for domU.
        name: human-readable label.
        num_vcpus: vCPU count.
        memory_pages: guest-physical pages (simulated pages).
        home_nodes: NUMA nodes the domain's memory is packed onto
            (chosen by the hypervisor at creation, paper section 3.3).
    """

    def __init__(
        self,
        domain_id: int,
        name: str,
        num_vcpus: int,
        memory_pages: int,
        home_nodes: Sequence[int],
    ):
        if num_vcpus < 1:
            raise DomainError("a domain needs at least one vCPU")
        if memory_pages < 1:
            raise DomainError("a domain needs memory")
        if not home_nodes:
            raise DomainError("a domain needs at least one home node")
        self.domain_id = domain_id
        self.name = name
        self.memory_pages = memory_pages
        self.home_nodes: Tuple[int, ...] = tuple(home_nodes)
        self.vcpus: List[VCpu] = [VCpu(domain_id, i) for i in range(num_vcpus)]
        self.p2m = P2MTable(domain_id, capacity=memory_pages)
        #: The active NUMA policy object (set by the policy manager).
        self.numa_policy: Optional["NumaPolicy"] = None
        #: True once the domain's memory is populated.
        self.built = False
        #: A paused domain's vCPUs make no progress and its guest takes
        #: no faults — the stop-and-copy window of a live migration.
        self.paused = False
        #: Lazy guest memory content model: one int64 write-stamp per
        #: gpfn (0 = never written). We do not simulate byte-level
        #: contents; a page's "content" is the stamp of the last guest
        #: write — exactly what live migration needs, since a destination
        #: page is a correct copy iff its stamp equals the source's at
        #: cutover. Worlds that never write pay one attribute check.
        self._memory_image: Optional[np.ndarray] = None

    def _ensure_image(self) -> None:
        if self._memory_image is None:
            self._memory_image = np.zeros(self.memory_pages, dtype=np.int64)

    def write_stamp(self, gpfn: int, stamp: int) -> None:
        """Record a guest write: ``gpfn``'s content becomes ``stamp``."""
        self._ensure_image()
        self._memory_image[gpfn] = stamp

    def read_stamps(self, gpfns) -> np.ndarray:
        """Write stamps of ``gpfns``, as a fresh array (0 = never written)."""
        gpfns = np.asarray(gpfns, dtype=np.int64)
        if self._memory_image is None:
            return np.zeros(gpfns.shape, dtype=np.int64)
        return self._memory_image[gpfns].copy()

    def copy_stamps_from(self, source: "Domain", gpfns) -> None:
        """Copy page contents of ``gpfns`` from ``source``'s image.

        The data mover of a live-migration copy round; the *caller* owns
        the protocol (pages must be write-protected on the source first).
        """
        gpfns = np.asarray(gpfns, dtype=np.int64)
        if gpfns.size == 0:
            return
        self._ensure_image()
        self._memory_image[gpfns] = source.read_stamps(gpfns)

    @property
    def is_dom0(self) -> bool:
        return self.domain_id == 0

    @property
    def num_vcpus(self) -> int:
        return len(self.vcpus)

    def gpfn_range(self) -> range:
        """All guest-physical frame numbers of the domain."""
        return range(self.memory_pages)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "dom0" if self.is_dom0 else "domU"
        return (
            f"Domain({self.domain_id}:{self.name}, {kind}, "
            f"{self.num_vcpus} vCPUs, {self.memory_pages} pages, "
            f"home={list(self.home_nodes)})"
        )
