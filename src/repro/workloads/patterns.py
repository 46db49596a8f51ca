"""Access-pattern arithmetic: from the paper's measured metrics to model knobs.

The paper characterises every application by two Table 1 measurements made
under native Linux:

* the **load imbalance** under first-touch — how concentrated accesses are
  on the allocating (master) thread's node;
* the **load imbalance** under round-4K — the residue that even spreading
  pages round-robin cannot remove, i.e. how concentrated accesses are on a
  few *hot pages*.

We invert both into model parameters:

* ``master_share`` — the fraction of an application's accesses that hit
  master-initialised (shared) memory. Under first-touch all of that lands
  on one node; with share *a* over *n* nodes the relative standard
  deviation of per-node access counts is ``a * sqrt(n - 1)``
  (derivation: node 0 gets ``a + (1-a)/n``, the others ``(1-a)/n``).
* ``hot_weight`` — the fraction of shared accesses hitting one dominant
  hot page. Under round-4K the spread memory is balanced except for that
  page, so the measured round-4K imbalance is ``hot_weight`` times the
  first-touch one — their ratio recovers the knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SegmentSpec:
    """Abstract description of one memory region of an application.

    Attributes:
        name: label ("shared", "private", ...).
        fraction: share of the footprint.
        init: who first-touches the pages ("master" or "owner").
        access: who accesses them at run time ("all" or "owner").
        weight: share of the application's memory accesses.
        hot_weight: fraction of this segment's accesses going to its
            single hottest page (0 = uniform).
        churn: pages of this segment are continuously freed/reallocated.
        write_fraction: fraction of writes (replication heuristic input).
    """

    name: str
    fraction: float
    init: str
    access: str
    weight: float
    hot_weight: float = 0.0
    churn: bool = False
    write_fraction: float = 0.2


def imbalance_for_master_share(master_share: float, num_nodes: int = 8) -> float:
    """Relative std-dev of node loads when ``master_share`` hits one node.

    The remaining accesses are spread uniformly (each thread local, one
    thread set per node).
    """
    if not 0.0 <= master_share <= 1.0:
        raise ValueError("master_share must be within [0, 1]")
    return master_share * math.sqrt(num_nodes - 1)


def master_share_for_imbalance(
    imbalance: float, num_nodes: int = 8, cap: float = 0.97
) -> float:
    """Invert :func:`imbalance_for_master_share` (clamped to ``cap``)."""
    if imbalance < 0:
        raise ValueError("imbalance must be non-negative")
    share = imbalance / math.sqrt(num_nodes - 1)
    return min(share, cap)


def hot_weight_for_ratio(
    r4k_imbalance: float, ft_imbalance: float, floor: float = 1e-3
) -> float:
    """Hot-page weight from the round-4K / first-touch imbalance ratio.

    A ratio >= 1 means placement barely changes the imbalance — a single
    page dominates (e.g. swaptions: 180% vs 175%).
    """
    if ft_imbalance <= floor:
        return 0.0
    return max(0.0, min(1.0, r4k_imbalance / ft_imbalance))
