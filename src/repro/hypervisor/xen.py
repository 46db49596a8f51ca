"""The hypervisor facade: domain lifecycle, features, wiring of all parts.

Two hypervisor configurations appear in the evaluation:

* **Xen** — stock behaviour: para-virtualised I/O through dom0, blocking
  guest synchronisation paying virtualised IPIs, round-1G placement;
* **Xen+** — the improved baseline of section 5.3: PCI passthrough with
  the IOMMU for I/O (except when first-touch is active, which requires
  the IOMMU off — section 4.4.1), and MCS spin locks replacing blocking
  pthread primitives for the apps that benefit.

``XenFeatures`` captures the difference so experiments toggle features the
way the paper does rather than forking the hypervisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import SimConfig
from repro.core.interface import InternalInterface
from repro.core.policies.base import PolicyName, PolicySpec
from repro.core.policy_manager import PolicyManager
from repro.errors import DomainError, P2MError, PolicyError
from repro.hardware.machine import Machine
from repro.hypervisor.allocator import XenHeapAllocator, choose_home_nodes
from repro.hypervisor.domain import Domain
from repro.hypervisor.faults import FaultHandler
from repro.hypervisor.hypercalls import HypercallCostModel, HypercallTable
from repro.hypervisor.ipi import IpiModel
from repro.hypervisor.scheduler import Scheduler
from repro.lint import sanitizer as p2m_sanitizer


@dataclass(frozen=True)
class XenFeatures:
    """Feature set distinguishing Xen from Xen+.

    Attributes:
        name: label used in reports ("Xen" / "Xen+").
        pci_passthrough: use the IOMMU + PCI passthrough driver for domU
            I/O when possible (Xen+).
        mcs_locks: replace blocking pthread primitives with MCS spin loops
            in the guest for the apps that thrash on virtualised IPIs
            (Xen+, single-VM runs of facesim/streamcluster).
    """

    name: str = "Xen"
    pci_passthrough: bool = False
    mcs_locks: bool = False


#: Stock Xen 4.5 behaviour.
XEN = XenFeatures(name="Xen")
#: The paper's improved baseline.
XEN_PLUS = XenFeatures(name="Xen+", pci_passthrough=True, mcs_locks=True)

#: Guest-physical pages reserved for dom0 (simulated pages).
DOM0_MEMORY_PAGES = 256


class Hypervisor:
    """A booted hypervisor on a machine, with dom0 already created.

    Args:
        machine: the hardware.
        features: Xen vs Xen+ toggles.
        hypercall_costs: timing model of guest exits.
    """

    def __init__(
        self,
        machine: Machine,
        features: XenFeatures = XEN,
        hypercall_costs: Optional[HypercallCostModel] = None,
    ):
        self.machine = machine
        self.features = features
        self.config: SimConfig = machine.config
        self.scheduler = Scheduler(machine.num_cpus)
        self.allocator = XenHeapAllocator(machine, machine.config)
        self.hypercalls = HypercallTable(hypercall_costs or HypercallCostModel())
        self.internal = InternalInterface(machine, self.allocator)
        self.fault_handler = FaultHandler(self.allocator)
        self.policy_manager = PolicyManager(self.internal, self.hypercalls)
        self.ipi = IpiModel()
        self.domains: Dict[int, Domain] = {}
        self._next_domid = 1
        #: Per-domain write-protection fault handlers. Live migration
        #: registers its dirty logger here; the handler is invoked (with
        #: the faulting gpfn) after the fault is accounted, and is
        #: expected to unprotect the entry so the write can complete.
        self._wp_handlers: Dict[int, object] = {}
        self.sanitizer: Optional[p2m_sanitizer.P2MSanitizer] = None
        if p2m_sanitizer.is_enabled():
            self.sanitizer = p2m_sanitizer.P2MSanitizer()
            machine.memory.sanitizer = self.sanitizer
        self._dom0 = self._create_dom0()

    # ------------------------------------------------------------------
    # Domain lifecycle

    @property
    def dom0(self) -> Domain:
        """The privileged management/I/O domain, pinned on node 0."""
        return self._dom0

    def create_domain(
        self,
        name: str,
        num_vcpus: int,
        memory_pages: int,
        home_nodes: Optional[Sequence[int]] = None,
        boot_policy: Optional[PolicySpec] = None,
        pin_pcpus: Optional[Sequence[int]] = None,
    ) -> Domain:
        """Create, place, populate and pin a domU.

        Args:
            name: label.
            num_vcpus: vCPU count.
            memory_pages: guest-physical size in simulated pages.
            home_nodes: explicit NUMA placement; computed greedily like
                Xen's soft affinity when omitted.
            boot_policy: defaults to round-4K (section 4.2.1).
            pin_pcpus: 1:1 vCPU pinning targets; defaults to the CPUs of
                the home nodes in order.
        """
        reserved = [
            self.scheduler.pcpu_of(v)
            for d in self.domains.values()
            for v in d.vcpus
            if v.pinned_pcpu is not None
        ]
        nodes = choose_home_nodes(
            self.machine, num_vcpus, memory_pages, reserved, home_nodes
        )
        domain = Domain(
            domain_id=self._next_domid,
            name=name,
            num_vcpus=num_vcpus,
            memory_pages=memory_pages,
            home_nodes=nodes,
        )
        self._next_domid += 1
        domain.p2m.frames_per_node = self.machine.memory.frames_per_node
        if self.sanitizer is not None:
            domain.p2m.sanitizer = self.sanitizer
        self.policy_manager.boot_domain(domain, boot_policy)
        if pin_pcpus is None:
            pin_pcpus = self._default_pinning(domain)
        self.scheduler.pin_domain(domain, pin_pcpus)
        self.domains[domain.domain_id] = domain
        return domain

    def destroy_domain(self, domain: Domain) -> None:
        """Tear a domU down, releasing CPUs, frames and counters."""
        if domain.is_dom0:
            raise PolicyError("cannot destroy dom0")
        self.scheduler.remove_domain(domain)
        self.policy_manager.forget_domain(domain)
        self.allocator.depopulate(domain)
        self.domains.pop(domain.domain_id, None)

    # ------------------------------------------------------------------
    # Policy plumbing

    def set_policy(
        self,
        domain: Domain,
        base: Optional[PolicyName] = None,
        carrefour: Optional[bool] = None,
    ):
        """Administrator-side policy switch (goes through the hypercall)."""
        from repro.hypervisor.hypercalls import Hypercall

        return self.hypercalls.dispatch(
            Hypercall.NUMA_SET_POLICY,
            domain.domain_id,
            0,
            {"policy": base.value if base else None, "carrefour": carrefour},
        )

    def io_mode(self, domain: Domain) -> str:
        """The I/O path a domU gets: "passthrough" or "paravirt".

        PCI passthrough needs the IOMMU, and the IOMMU cannot coexist with
        a policy that invalidates p2m entries (section 4.4.1) — so
        activating first-touch silently falls back to the para-virtualised
        path, exactly as the paper's evaluation does (section 5.3.1).
        """
        if not self.features.pci_passthrough:
            return "paravirt"
        if not self.machine.iommu.enabled:
            return "paravirt"
        policy = domain.numa_policy
        if policy is not None and policy.requires_iommu_disabled:
            return "paravirt"
        return "passthrough"

    # ------------------------------------------------------------------
    # Access path used by the simulation engine

    def guest_access(self, domain: Domain, vcpu_id: int, gpfn: int) -> int:
        """Resolve one guest memory access to a machine frame.

        Valid entries translate for free; invalid ones take the hypervisor
        fault path and land where the domain's policy decides.
        """
        vcpu = domain.vcpus[vcpu_id]
        pcpu = self.scheduler.pcpu_of(vcpu)
        node = self.machine.topology.node_of_cpu(pcpu)
        return self.fault_handler.on_access(domain, vcpu_id, gpfn, node)

    def guest_faults_many(
        self, domain: Domain, vcpu_id: int, gpfns
    ) -> Optional["np.ndarray"]:
        """Fault a whole gpfn array in for one vCPU.

        The batch counterpart of taking :meth:`guest_access` faults page
        by page: every gpfn must currently be invalid (the caller — the
        first-touch init path — guarantees it). Returns the mfn array, or
        None when the policy needs per-page fault decisions.
        """
        vcpu = domain.vcpus[vcpu_id]
        pcpu = self.scheduler.pcpu_of(vcpu)
        node = self.machine.topology.node_of_cpu(pcpu)
        return self.fault_handler.handle_faults(domain, vcpu_id, gpfns, node)

    def vcpu_node(self, domain: Domain, vcpu_id: int) -> int:
        """NUMA node currently hosting a vCPU."""
        pcpu = self.scheduler.pcpu_of(domain.vcpus[vcpu_id])
        return self.machine.topology.node_of_cpu(pcpu)

    # ------------------------------------------------------------------
    # Write path and migration plumbing

    def pause_domain(self, domain: Domain) -> None:
        """Freeze the domain's vCPUs (stop-and-copy window)."""
        domain.paused = True

    def set_write_fault_handler(self, domain: Domain, handler) -> None:
        """Route the domain's write-protection faults to ``handler(gpfn)``.

        Live migration's dirty logger: called after the fault is
        accounted through :meth:`FaultHandler.on_write_protected`; the
        handler must restore writability (``unprotect``) so the guest's
        write completes — the page is thereby *dirty* for the next round.
        """
        self._wp_handlers[domain.domain_id] = handler

    def clear_write_fault_handler(self, domain: Domain) -> None:
        self._wp_handlers.pop(domain.domain_id, None)

    def guest_write(
        self, domain: Domain, vcpu_id: int, gpfn: int, stamp: int
    ) -> int:
        """Resolve one guest memory *write*; returns the backing mfn.

        Like :meth:`guest_access` plus the content model: the page's
        write stamp is updated. A write to a write-protected entry traps
        — the fault is accounted and handed to the domain's registered
        write-fault handler, which logs the page dirty and unprotects it.
        """
        if domain.paused:
            raise DomainError(
                f"domain {domain.domain_id} is paused; its vCPUs cannot write"
            )
        mfn = self.guest_access(domain, vcpu_id, gpfn)
        if not domain.p2m.is_writable(gpfn):
            self.fault_handler.on_write_protected(domain, gpfn)
            handler = self._wp_handlers.get(domain.domain_id)
            if handler is None:
                raise P2MError(
                    f"write fault on domain {domain.domain_id} gpfn "
                    f"{gpfn:#x} with no write-fault handler registered"
                )
            handler(gpfn)
            if not domain.p2m.is_writable(gpfn):
                raise P2MError(
                    f"write-fault handler left domain {domain.domain_id} "
                    f"gpfn {gpfn:#x} write-protected; the guest write "
                    f"cannot complete"
                )
        domain.write_stamp(gpfn, stamp)
        return mfn

    # ------------------------------------------------------------------
    # Internals

    def _create_dom0(self) -> Domain:
        """Boot dom0 pinned to node 0 (paper section 5.2).

        dom0 is mostly idle in the experiments; it exists for the I/O path
        and as the home of Carrefour's user component, so it is not run
        through the scheduler's share accounting.
        """
        dom0 = Domain(
            domain_id=0,
            name="dom0",
            num_vcpus=self.machine.topology.cpus_per_node,
            memory_pages=min(
                DOM0_MEMORY_PAGES, self.machine.memory.frames_per_node // 4
            ),
            home_nodes=(0,),
        )
        dom0.p2m.frames_per_node = self.machine.memory.frames_per_node
        if self.sanitizer is not None:
            dom0.p2m.sanitizer = self.sanitizer
        self.policy_manager.boot_domain(
            dom0, PolicySpec(PolicyName.ROUND_4K)
        )
        self.domains[0] = dom0
        return dom0

    def _default_pinning(self, domain: Domain) -> List[int]:
        """Pin vCPUs onto the home nodes' CPUs, node by node."""
        cpus: List[int] = []
        for node in domain.home_nodes:
            cpus.extend(self.machine.topology.cpus_of_node(node))
        if len(cpus) < domain.num_vcpus:
            # Consolidated setups (2 x 48 vCPUs) wrap around.
            while len(cpus) < domain.num_vcpus:
                cpus.extend(cpus[: domain.num_vcpus - len(cpus)])
        return cpus[: domain.num_vcpus]
