"""Global metrics driving Carrefour's heuristic selection.

Each iteration, Carrefour first looks at machine-wide counters to decide
*which* heuristics to enable (paper section 3.4):

* if overall memory traffic is low, do nothing (migrations would only
  cost);
* if the memory controllers are imbalanced, enable the **interleave**
  heuristic;
* if the interconnect is loaded / locality is poor, enable the
  **migration** (and, in the original, **replication**) heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


from repro.core.policies.base import EpochObservation


@dataclass(frozen=True)
class CarrefourMetrics:
    """Machine-wide view of one epoch, as Carrefour's user component sees it.

    Attributes:
        access_rate_per_s: memory accesses per second, all nodes.
        imbalance: relative std-dev of per-node access counts.
        local_fraction: fraction of node-local accesses.
        max_link_rho: utilisation of the busiest interconnect link.
        node_loads: per-node access counts this epoch.
        overloaded_nodes: nodes above (1 + spread) * mean load.
        underloaded_nodes: nodes below (1 - spread) * mean load.
    """

    access_rate_per_s: float
    imbalance: float
    local_fraction: float
    max_link_rho: float
    node_loads: Tuple[float, ...]
    overloaded_nodes: Tuple[int, ...]
    underloaded_nodes: Tuple[int, ...]


def compute_metrics(
    observation: EpochObservation, load_spread: float = 0.25
) -> CarrefourMetrics:
    """Digest an epoch observation into Carrefour's global metrics.

    Args:
        observation: counters for the last epoch.
        load_spread: relative distance from the mean load beyond which a
            node counts as over/underloaded.
    """
    loads = observation.access_matrix.sum(axis=0)
    mean = float(loads.mean())
    overloaded: List[int] = []
    underloaded: List[int] = []
    if mean > 0:
        for node, load in enumerate(loads):
            if load > mean * (1.0 + load_spread):
                overloaded.append(node)
            elif load < mean * (1.0 - load_spread):
                underloaded.append(node)
    rate = (
        observation.total_accesses / observation.epoch_seconds
        if observation.epoch_seconds > 0
        else 0.0
    )
    return CarrefourMetrics(
        access_rate_per_s=rate,
        imbalance=observation.imbalance,
        local_fraction=observation.local_fraction,
        max_link_rho=observation.max_link_rho,
        node_loads=tuple(float(l) for l in loads),
        overloaded_nodes=tuple(overloaded),
        underloaded_nodes=tuple(underloaded),
    )
