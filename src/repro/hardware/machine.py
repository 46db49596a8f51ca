"""The :class:`Machine` facade bundling every hardware component.

A ``Machine`` owns a topology, the machine memory with its per-node
controllers, the interconnect, a cache hierarchy, the calibrated latency
model, performance counters and the IOMMU. The simulation engine records
all memory traffic through :func:`record_node_traffic_many` so that
controllers, links and counters stay consistent.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.config import SimConfig, DEFAULT_CONFIG
from repro.hardware.cache import CacheHierarchy
from repro.hardware.counters import CACHE_LINE_BYTES, PerfCounters
from repro.hardware.interconnect import Interconnect
from repro.hardware.iommu import Iommu
from repro.hardware.latency import LatencyModel
from repro.hardware.memory import MachineMemory
from repro.hardware.topology import NumaTopology


class Machine:
    """A simulated NUMA machine.

    Args:
        topology: node/CPU/link layout.
        frames_per_node: simulated frames per node (derived from the
            topology's bank size and the config's page scale when omitted).
        caches: cache hierarchy shared by all CPUs.
        latency: the contention-aware latency model.
        config: global simulation knobs.
        iommu_enabled: whether the machine has a usable IOMMU.
    """

    def __init__(
        self,
        topology: NumaTopology,
        caches: CacheHierarchy,
        latency: Optional[LatencyModel] = None,
        frames_per_node: Optional[int] = None,
        config: SimConfig = DEFAULT_CONFIG,
        iommu_enabled: bool = True,
    ):
        self.topology = topology
        self.caches = caches
        self.latency = latency or LatencyModel()
        self.config = config
        if frames_per_node is None:
            bank_bytes = topology.node_memory_gib * (1 << 30)
            frames_per_node = max(1, int(bank_bytes // config.page_bytes))
        self.memory = MachineMemory(
            num_nodes=topology.num_nodes,
            frames_per_node=frames_per_node,
            controller_gib_s=topology.memory_controller_gib_s,
        )
        self.interconnect = Interconnect(topology)
        self.counters = PerfCounters(topology.num_nodes)
        self.iommu = Iommu(enabled=iommu_enabled)

    # ------------------------------------------------------------------
    # Geometry shortcuts

    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    @property
    def num_cpus(self) -> int:
        return self.topology.num_cpus

    def node_of_frame(self, mfn: int) -> int:
        """NUMA node owning machine frame ``mfn``."""
        return self.memory.node_of_frame(mfn)

    def nodes_of_frames(self, mfns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`node_of_frame` over an mfn array."""
        return self.memory.nodes_of_frames(mfns)

    # ------------------------------------------------------------------
    # Epoch accounting

    def record_link_traffic(self, link_bytes: Iterable[int]) -> None:
        """Add precomputed per-link byte counts (``topology.links`` order)."""
        self.interconnect.record_link_bytes(link_bytes)

    def congestion(self, seconds: float) -> Tuple[np.ndarray, Dict[Tuple[int, int], float]]:
        """Controller and link utilisations for the traffic recorded so far.

        Returns:
            (rho_controllers, rho_links): per-node controller utilisation
            array and per-link utilisation dict, both unclamped.
        """
        rho_c = np.array(
            [c.utilization(seconds) for c in self.memory.controllers]
        )
        rho_l = self.interconnect.utilizations(seconds)
        return rho_c, rho_l

    def end_epoch(self) -> np.ndarray:
        """Archive counters and reset per-epoch accounting on all parts."""
        snapshot = self.counters.end_epoch()
        self.memory.reset_controllers()
        self.interconnect.reset()
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Machine({self.num_nodes} nodes x {self.topology.cpus_per_node} CPUs, "
            f"{self.memory.frames_per_node} frames/node)"
        )


def record_node_traffic_many(
    machines: Sequence[Machine], stacked: np.ndarray
) -> None:
    """Account one epoch of traffic on many machines at once.

    ``stacked[w]`` is machine ``w``'s access matrix. State-identical to
    recording each machine's matrix on its own (the per-machine oracle
    in ``tests/properties/engine_oracle.py``) — the same per-world
    arithmetic, with the fixed numpy overheads (dtype cast,
    diagonal clear, route matmul) paid once per epoch instead of once
    per world. Callers must have checked the machines share a topology
    (routes and link order), as the multi-run grouper does; the route
    incidence of the first machine is reused for all of them.
    """
    num_worlds = len(machines)
    n = machines[0].num_nodes
    if stacked.shape != (num_worlds, n, n):
        raise ValueError("access matrix stack shape mismatch")
    # Column sums over the stack reduce the same contiguous elements in
    # the same order as each slice's ``matrix.sum(axis=0)``.
    col_stack = stacked.sum(axis=1) * CACHE_LINE_BYTES
    byte_stack = (stacked * CACHE_LINE_BYTES).astype(np.int64)
    idx = np.arange(n)
    byte_stack[:, idx, idx] = 0
    incidence = machines[0].interconnect.route_incidence()
    link_stack = byte_stack.reshape(num_worlds, -1) @ incidence
    for w, machine in enumerate(machines):
        machine.counters.record_matrix(stacked[w])
        for node, nbytes in enumerate(col_stack[w].tolist()):
            if nbytes:
                machine.memory.controllers[node].serve(int(nbytes))
        machine.record_link_traffic(link_stack[w].tolist())
