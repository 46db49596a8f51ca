"""Cache hierarchy model.

AMD48 CPUs (Opteron 6174) have per-core L1 (64 KiB data, 5 cycles) and L2
(512 KiB, 16 cycles) caches and a per-node L3 (5 MiB, 48 cycles) shared by
the 6 cores of the node (paper section 5.1, Table 3).

The simulator charges memory accesses by NUMA distance, not by cache
level, so the hierarchy only records the levels and their hit latencies
(Table 3 reports them beside the memory latencies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class CacheLevel:
    """One cache level.

    Attributes:
        name: "L1" / "L2" / "L3".
        size_bytes: capacity of the level.
        latency_cycles: access latency on a hit.
    """

    name: str
    size_bytes: int
    latency_cycles: float


class CacheHierarchy:
    """A stack of cache levels.

    Args:
        levels: ordered from closest (L1) to farthest (L3).
    """

    def __init__(self, levels: Tuple[CacheLevel, ...]):
        if not levels:
            raise ValueError("need at least one cache level")
        self.levels = levels
