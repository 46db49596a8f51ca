"""Guest processes and threads.

The paper's key observation is the *semantic gap*: the hypervisor sees
vCPUs and physical pages of a VM, never processes or their virtual memory.
These classes live strictly on the guest side of that gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.vmm import GuestAddressSpace


@dataclass
class Thread:
    """A guest thread, pinned to one vCPU (the paper pins everything).

    Attributes:
        tid: thread id, unique inside the process.
        vcpu_id: the vCPU this thread runs on (equals the CPU id in
            native mode).
    """

    tid: int
    vcpu_id: int
    #: Set by the engine: NUMA node currently under this thread.
    node: int = 0


class Process:
    """A guest process: threads plus one virtual address space."""

    _next_pid = 1

    def __init__(self, name: str, address_space: "GuestAddressSpace"):
        self.pid = Process._next_pid
        Process._next_pid += 1
        self.name = name
        self.address_space = address_space
        self.threads: List[Thread] = []

    @property
    def master(self) -> Thread:
        """Thread 0 — the one that initialises memory in master/slave apps."""
        if not self.threads:
            raise RuntimeError("process has no threads")
        return self.threads[0]

    @property
    def num_threads(self) -> int:
        return len(self.threads)
