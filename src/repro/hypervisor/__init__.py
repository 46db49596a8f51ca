"""Xen-like hypervisor: domains, p2m, heap allocator, hypercalls, scheduler."""

from repro.hypervisor.p2m import P2MTable
from repro.hypervisor.domain import Domain, VCpu
from repro.hypervisor.allocator import XenHeapAllocator, choose_home_nodes
from repro.hypervisor.hypercalls import Hypercall, HypercallTable, HypercallCostModel
from repro.hypervisor.scheduler import Scheduler
from repro.hypervisor.faults import FaultHandler
from repro.hypervisor.ipi import IpiModel, IpiComponent


def __getattr__(name):
    # Hypervisor/XenFeatures live in xen.py, which imports repro.core (the
    # policy layer); loading them lazily breaks the core <-> hypervisor
    # import cycle.
    if name in ("Hypervisor", "XenFeatures", "XEN", "XEN_PLUS"):
        from repro.hypervisor import xen

        return getattr(xen, name)
    raise AttributeError(name)

__all__ = [
    "P2MTable",
    "Domain",
    "VCpu",
    "XenHeapAllocator",
    "choose_home_nodes",
    "Hypercall",
    "HypercallTable",
    "HypercallCostModel",
    "Scheduler",
    "FaultHandler",
    "IpiModel",
    "IpiComponent",
    "Hypervisor",
    "XenFeatures",
]
