"""Machine presets, foremost the paper's evaluation machine "AMD48".

AMD48 (paper section 5.1): four Opteron 6174 sockets, each containing two
NUMA nodes — 8 nodes, 6 CPUs per node (48 cores), 16 GiB per node (128 GiB
total). Each node's memory controller peaks at 13 GiB/s. Nodes are joined
by HyperTransport links with asymmetric bandwidth (max 6 GiB/s) and a hop
diameter of 2. Nodes 0 and 6 carry the two PCI express buses. Caches:
per-core L1 64 KiB (5 cycles) and L2 512 KiB (16 cycles), per-node L3
5 MiB (48 cycles) shared by the node's 6 cores. Cores run at 2.2 GHz.

The exact HT wiring of the Magny-Cours platform is not public in enough
detail to copy; we use a plausible graph with the right diameter:
intra-socket sibling links (6 GiB/s), plus a clique among even nodes and a
clique among odd nodes (4 GiB/s), giving every pair a route of at most two
hops — matching Table 3's "maximum distance of two hops".
"""

from __future__ import annotations

from typing import Optional

from repro.config import SimConfig, DEFAULT_CONFIG
from repro.hardware.cache import CacheHierarchy, CacheLevel
from repro.hardware.latency import LatencyModel
from repro.hardware.machine import Machine
from repro.hardware.topology import Link, NumaTopology

#: Bandwidth of an intra-socket HT link (GiB/s).
INTRA_SOCKET_GIB_S = 6.0
#: Bandwidth of an inter-socket HT link (GiB/s) — the asymmetric, slower class.
INTER_SOCKET_GIB_S = 4.0
#: Per-node memory controller throughput (GiB/s).
CONTROLLER_GIB_S = 13.0
#: Memory per node (GiB).
NODE_MEMORY_GIB = 16.0


def amd48_topology() -> NumaTopology:
    """The 8-node, 48-core AMD48 topology."""
    links = []
    # Intra-socket sibling links: sockets are {0,1} {2,3} {4,5} {6,7}.
    for socket in range(4):
        links.append(Link(2 * socket, 2 * socket + 1, INTRA_SOCKET_GIB_S))
    # Cross-socket links: clique over even nodes and clique over odd nodes.
    evens = [0, 2, 4, 6]
    odds = [1, 3, 5, 7]
    for group in (evens, odds):
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                links.append(Link(a, b, INTER_SOCKET_GIB_S))
    return NumaTopology(
        num_nodes=8,
        cpus_per_node=6,
        links=links,
        memory_controller_gib_s=CONTROLLER_GIB_S,
        node_memory_gib=NODE_MEMORY_GIB,
        pci_nodes=(0, 6),
    )


def amd48_caches() -> CacheHierarchy:
    """The Opteron 6174 cache hierarchy (Table 3 latencies)."""
    return CacheHierarchy(
        levels=(
            CacheLevel("L1", 64 * 1024, 5.0),
            CacheLevel("L2", 512 * 1024, 16.0),
            CacheLevel("L3", 5 * 1024 * 1024, 48.0),
        )
    )


def amd48(
    config: SimConfig = DEFAULT_CONFIG,
    iommu_enabled: bool = True,
    latency: Optional[LatencyModel] = None,
) -> Machine:
    """Build the paper's AMD48 machine.

    Args:
        config: simulation knobs (page scale, epoch length, seed).
        iommu_enabled: whether the AMD IOMMU is available.
        latency: override the Table 3-calibrated latency model.
    """
    return Machine(
        topology=amd48_topology(),
        caches=amd48_caches(),
        latency=latency or LatencyModel(freq_ghz=2.2),
        config=config,
        iommu_enabled=iommu_enabled,
    )
