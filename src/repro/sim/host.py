"""A host: one machine with one booted hypervisor, as a replicable value.

Before the cluster work, "the machine and its Xen instance" existed only
as locals of ``XenEnvironment.setup`` — an implicit singleton of the one
world being built. :class:`Host` reifies that pair so N identical hosts
can coexist in one process (each with its own heap, scheduler, fault
handler and sanitizer) and so live migration can talk about a *source*
host and a *destination* host as ordinary values.
"""

from __future__ import annotations


from repro.config import SimConfig
from repro.hardware.machine import Machine
from repro.hypervisor.xen import Hypervisor


class Host:
    """One machine + hypervisor pair, identified inside a cluster.

    Args:
        host_id: index inside the owning cluster (0 for single-host runs).
        machine: the hardware.
        hypervisor: the booted Xen instance on that hardware.
    """

    def __init__(self, host_id: int, machine: Machine, hypervisor: Hypervisor):
        if hypervisor.machine is not machine:
            raise ValueError("hypervisor must be booted on the host's machine")
        self.host_id = host_id
        self.machine = machine
        self.hypervisor = hypervisor

    @property
    def config(self) -> SimConfig:
        return self.machine.config

    def free_frames_by_node(self):
        """Per-node free frame counts (the placement scheduler's input)."""
        memory = self.machine.memory
        return [
            memory.free_frames_on(node)
            for node in range(self.machine.num_nodes)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Host({self.host_id}, {self.machine.num_nodes} nodes, "
            f"{len(self.hypervisor.domains) - 1} domUs)"
        )
