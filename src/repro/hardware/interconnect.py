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

    def reset(self) -> None:
        """Clear per-epoch counters."""
        for key in self._bytes:
            self._bytes[key] = 0
