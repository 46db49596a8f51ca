"""NUMA topology: nodes, CPUs, interconnect links and routing.

A NUMA machine is a set of nodes, each holding CPUs and a memory bank,
connected by point-to-point links (HyperTransport on the paper's AMD48
machine). The hardware statically routes a memory access from the node of
the issuing CPU to the node owning the target machine page; this module
computes those routes (shortest path, like the HT routing tables) and the
hop distance matrix used by the latency model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError

NodeId = int
CpuId = int


@dataclass(frozen=True)
class Link:
    """A bidirectional interconnect link between two NUMA nodes.

    Attributes:
        a, b: endpoint node ids, normalised so that ``a < b``.
        bandwidth_gib_s: peak usable bandwidth in GiB/s.
    """

    a: NodeId
    b: NodeId
    bandwidth_gib_s: float

    def __post_init__(self):
        if self.a == self.b:
            raise TopologyError(f"link endpoints must differ, got {self.a}")
        if self.a > self.b:
            low, high = self.b, self.a
            object.__setattr__(self, "a", low)
            object.__setattr__(self, "b", high)
        if self.bandwidth_gib_s <= 0:
            raise TopologyError("link bandwidth must be positive")

    @property
    def key(self) -> Tuple[NodeId, NodeId]:
        """Canonical (small, large) endpoint pair identifying this link."""
        return (self.a, self.b)

    def other(self, node: NodeId) -> NodeId:
        """The endpoint opposite ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise TopologyError(f"node {node} is not an endpoint of {self.key}")


class NumaTopology:
    """Immutable description of nodes, CPUs and links, with routing.

    Args:
        num_nodes: number of NUMA nodes.
        cpus_per_node: CPUs in each node. CPU ids are assigned densely:
            node ``n`` owns CPUs ``[n * cpus_per_node, (n+1) * cpus_per_node)``.
        links: interconnect links. The graph must be connected.
        memory_controller_gib_s: per-node memory controller peak throughput.
        node_memory_gib: memory bank size of each node, in GiB.
        pci_nodes: nodes physically attached to a PCI express bus.
    """

    def __init__(
        self,
        num_nodes: int,
        cpus_per_node: int,
        links: Sequence[Link],
        memory_controller_gib_s: float,
        node_memory_gib: float,
        pci_nodes: Sequence[NodeId] = (),
    ):
        if num_nodes < 1:
            raise TopologyError("need at least one node")
        if cpus_per_node < 1:
            raise TopologyError("need at least one CPU per node")
        self.num_nodes = num_nodes
        self.cpus_per_node = cpus_per_node
        self.memory_controller_gib_s = memory_controller_gib_s
        self.node_memory_gib = node_memory_gib
        self.pci_nodes = tuple(pci_nodes)
        for n in self.pci_nodes:
            self._check_node(n)

        self._links: Dict[Tuple[NodeId, NodeId], Link] = {}
        self._adjacency: Dict[NodeId, List[NodeId]] = {n: [] for n in range(num_nodes)}
        for link in links:
            self._check_node(link.a)
            self._check_node(link.b)
            if link.key in self._links:
                raise TopologyError(f"duplicate link {link.key}")
            self._links[link.key] = link
            self._adjacency[link.a].append(link.b)
            self._adjacency[link.b].append(link.a)

        self._routes = self._compute_routes()

    # ------------------------------------------------------------------
    # Basic queries

    @property
    def num_cpus(self) -> int:
        """Total CPU count of the machine."""
        return self.num_nodes * self.cpus_per_node

    @property
    def links(self) -> Tuple[Link, ...]:
        """All interconnect links."""
        return tuple(self._links.values())

    def node_of_cpu(self, cpu: CpuId) -> NodeId:
        """NUMA node owning ``cpu``."""
        if not 0 <= cpu < self.num_cpus:
            raise TopologyError(f"cpu {cpu} out of range")
        return cpu // self.cpus_per_node

    def cpus_of_node(self, node: NodeId) -> range:
        """CPU ids belonging to ``node``."""
        self._check_node(node)
        base = node * self.cpus_per_node
        return range(base, base + self.cpus_per_node)

    def link_between(self, a: NodeId, b: NodeId) -> Link:
        """The direct link between adjacent nodes ``a`` and ``b``."""
        key = (min(a, b), max(a, b))
        try:
            return self._links[key]
        except KeyError:
            raise TopologyError(f"no direct link between {a} and {b}") from None

    # ------------------------------------------------------------------
    # Routing

    def route(self, src: NodeId, dst: NodeId) -> Tuple[Link, ...]:
        """The links traversed by a memory access from ``src`` to ``dst``.

        Empty for a local access. Routes are shortest paths, fixed at
        construction time (hardware routing tables are static).
        """
        self._check_node(src)
        self._check_node(dst)
        return self._routes[(src, dst)]

    def hops(self, src: NodeId, dst: NodeId) -> int:
        """Hop distance between two nodes (0 for local)."""
        return len(self.route(src, dst))

    def diameter(self) -> int:
        """Maximum hop distance between any two nodes."""
        return max(len(r) for r in self._routes.values())

    def route_link_matrix(self) -> np.ndarray:
        """The routing tables as a dense 0/1 matrix.

        ``R[src * num_nodes + dst, i]`` is 1.0 iff :meth:`route`
        ``(src, dst)`` traverses ``links[i]`` (link order is that of the
        :attr:`links` tuple). Local routes are all-zero rows. This is the
        export the congestion solver turns into matrix products: per-link
        traffic is ``flat_access_matrix @ R`` and the max utilisation along
        a route is a masked row-max — no per-(src, dst) Python loops.
        """
        link_index = {link.key: i for i, link in enumerate(self.links)}
        matrix = np.zeros((self.num_nodes * self.num_nodes, len(link_index)))
        for (src, dst), route in self._routes.items():
            row = src * self.num_nodes + dst
            for link in route:
                matrix[row, link_index[link.key]] = 1.0
        return matrix

    # ------------------------------------------------------------------
    # Internals

    def _check_node(self, node: NodeId) -> None:
        if not 0 <= node < self.num_nodes:
            raise TopologyError(f"node {node} out of range [0, {self.num_nodes})")

    def _compute_routes(self) -> Dict[Tuple[NodeId, NodeId], Tuple[Link, ...]]:
        routes: Dict[Tuple[NodeId, NodeId], Tuple[Link, ...]] = {}
        for src in range(self.num_nodes):
            # BFS from src; parent pointers give shortest paths.
            parent: Dict[NodeId, NodeId] = {src: src}
            queue = deque([src])
            while queue:
                cur = queue.popleft()
                for nxt in self._adjacency[cur]:
                    if nxt not in parent:
                        parent[nxt] = cur
                        queue.append(nxt)
            if len(parent) != self.num_nodes:
                missing = set(range(self.num_nodes)) - set(parent)
                raise TopologyError(f"topology is disconnected: {sorted(missing)}")
            for dst in range(self.num_nodes):
                path: List[Link] = []
                cur = dst
                while cur != src:
                    prev = parent[cur]
                    path.append(self.link_between(prev, cur))
                    cur = prev
                routes[(src, dst)] = tuple(reversed(path))
        return routes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"NumaTopology(nodes={self.num_nodes}, cpus/node={self.cpus_per_node}, "
            f"links={len(self._links)}, diameter={self.diameter()})"
        )
