"""Interconnect load accounting.

Tracks, per epoch, how many bytes crossed each HyperTransport link. The
latency model converts link byte counts into utilisations; the analysis
module reports the paper's "interconnect load" metric (average utilisation
of the most loaded link, Table 1).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.hardware.topology import Link, NumaTopology

LinkKey = Tuple[int, int]


class Interconnect:
    """Per-epoch byte counters for every link of a topology."""

    def __init__(self, topology: NumaTopology):
        self.topology = topology
        self._bytes: Dict[LinkKey, int] = {l.key: 0 for l in topology.links}
        self._keys: Tuple[LinkKey, ...] = tuple(l.key for l in topology.links)
        self._route_incidence: Optional[np.ndarray] = None

    def record_access(self, src: int, dst: int, nbytes: int) -> None:
        """Account ``nbytes`` flowing along the route from ``src`` to ``dst``.

        Local accesses (src == dst) touch no link.
        """
        if src == dst or nbytes == 0:
            return
        for link in self.topology.route(src, dst):
            self._bytes[link.key] += nbytes

    def route_incidence(self) -> np.ndarray:
        """0/1 matrix mapping flattened ``(src, dst)`` pairs to links.

        Built lazily from the topology's routes and cached; multiplying a
        flattened byte matrix against it yields per-link byte totals in
        ``topology.links`` order.
        """
        if self._route_incidence is None:
            incidence = self.topology.route_link_matrix().astype(np.int64)
            incidence.setflags(write=False)
            self._route_incidence = incidence
        return self._route_incidence

    def record_link_bytes(self, link_bytes: Iterable[int]) -> None:
        """Add precomputed per-link byte counts (``topology.links`` order)."""
        for key, nbytes in zip(self._keys, link_bytes):
            if nbytes:
                self._bytes[key] += nbytes

    def record_access_matrix(self, byte_matrix: np.ndarray) -> None:
        """Account a whole ``(n, n)`` matrix of per-route byte counts.

        State-identical to calling :meth:`record_access` on every
        ``(src, dst)`` pair: per-link totals are integer sums of the same
        per-pair byte counts (integer addition is order-free), computed
        as one integer matrix product against the 0/1 route-incidence
        matrix instead of ``n**2`` python route walks. This is the engine
        hot path — one call per world per epoch.
        """
        if not self._keys:
            return
        link_bytes = byte_matrix.reshape(-1) @ self.route_incidence()
        self.record_link_bytes(link_bytes.tolist())

    def bytes_on(self, link: Link) -> int:
        """Bytes accounted on ``link`` this epoch."""
        return self._bytes[link.key]

    def utilization(self, link: Link, seconds: float) -> float:
        """Fraction of ``link`` bandwidth used over ``seconds`` (unclamped)."""
        if seconds <= 0:
            return 0.0
        capacity = link.bandwidth_gib_s * (1 << 30) * seconds
        return self._bytes[link.key] / capacity

    def utilizations(self, seconds: float) -> Dict[LinkKey, float]:
        """Utilisation of every link this epoch."""
        return {
            link.key: self.utilization(link, seconds)
            for link in self.topology.links
        }

    def max_utilization(self, seconds: float) -> float:
        """Utilisation of the most loaded link (the paper's congestion signal)."""
        utils = self.utilizations(seconds)
        return max(utils.values(), default=0.0)

    def route_utilization(self, src: int, dst: int, seconds: float) -> float:
        """Max utilisation along the route ``src`` -> ``dst`` (0 if local)."""
        route = self.topology.route(src, dst)
        if not route:
            return 0.0
        return max(self.utilization(link, seconds) for link in route)

    def reset(self) -> None:
        """Clear per-epoch counters."""
        for key in self._bytes:
            self._bytes[key] = 0
