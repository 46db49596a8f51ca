"""Carrefour's three per-page heuristics (paper section 3.4).

* **interleave**: when memory controllers are overloaded, randomly migrate
  hot pages from overloaded nodes to underloaded nodes;
* **migration**: when the interconnect saturates, migrate hot pages that
  are remotely accessed by a *single* node to that node;
* **replication**: replicate hot read-only pages accessed by several
  nodes. The paper implements but *discards* this heuristic in the Xen
  port (marginal gains, deep memory-manager changes), so our engine ships
  it disabled by default.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.hardware.counters import HotPageSample, HotPageSamples


class Action(enum.Enum):
    """What to do with one hot page."""

    MIGRATE = "migrate"
    INTERLEAVE = "interleave"
    REPLICATE = "replicate"


@dataclass(frozen=True)
class PageDecision:
    """One decision of the user component.

    Attributes:
        page: the page (gpfn in hypervisor mode, vpfn in Linux mode).
        domain_id: owning domain.
        action: which heuristic fired.
        dst_node: target node (meaningless for REPLICATE).
    """

    page: int
    domain_id: int
    action: Action
    dst_node: int


#: Returns the node currently backing a page (None if unmapped).
PlacementFn = Callable[[int], Optional[int]]


def sample_arrays(hot_pages: Sequence[HotPageSample]):
    """Columnar arrays over a hot-page sample list.

    The vectorized decide path works on these instead of per-sample
    attribute access: returns ``(pages, domains, accesses, write_fraction)``
    where ``accesses`` is the (num_samples, num_nodes) count matrix. A
    columnar :class:`HotPageSamples` hands back its own (frozen) arrays.
    """
    if isinstance(hot_pages, HotPageSamples):
        return (
            hot_pages.pages,
            hot_pages.domains,
            hot_pages.accesses,
            hot_pages.write_fraction,
        )
    n = len(hot_pages)
    pages = np.fromiter((s.page for s in hot_pages), dtype=np.int64, count=n)
    domains = np.fromiter(
        (s.domain_id for s in hot_pages), dtype=np.int64, count=n
    )
    accesses = np.array([s.node_accesses for s in hot_pages], dtype=np.int64)
    write_fraction = np.fromiter(
        (s.write_fraction for s in hot_pages), dtype=np.float64, count=n
    )
    return pages, domains, accesses, write_fraction


def migration_candidates(
    accesses: np.ndarray, nodes: np.ndarray, single_node_share: float
):
    """Mask form of :func:`migration_decisions`'s per-sample filter.

    Returns ``(mask, dominant)``: which samples a scalar walk would pick
    (dominant node holds at least ``single_node_share`` of the accesses
    and the page lives elsewhere), and each sample's dominant node.
    """
    totals = accesses.sum(axis=1)
    dominant = np.argmax(accesses, axis=1)
    dom_counts = accesses[np.arange(accesses.shape[0]), dominant]
    mask = (
        (totals > 0)
        & (dom_counts >= single_node_share * totals)
        & (nodes >= 0)
        & (nodes != dominant)
    )
    return mask, dominant


def interleave_candidates(
    nodes: np.ndarray, overloaded: Sequence[int]
) -> np.ndarray:
    """Mask form of :func:`interleave_decisions`'s per-sample filter."""
    return (nodes >= 0) & np.isin(
        nodes, np.asarray(list(overloaded), dtype=np.int64)
    )


def replication_candidates(
    accesses: np.ndarray,
    write_fraction: np.ndarray,
    nodes: np.ndarray,
    max_write_fraction: float = 0.05,
    min_sharer_nodes: int = 2,
) -> np.ndarray:
    """Mask form of :func:`replication_decisions`'s per-sample filter."""
    sharers = (accesses > 0).sum(axis=1)
    return (
        (write_fraction <= max_write_fraction)
        & (sharers >= min_sharer_nodes)
        & (nodes >= 0)
    )


def migration_decisions(
    hot_pages: Sequence[HotPageSample],
    placement: PlacementFn,
    budget: int,
    single_node_share: float = 0.9,
) -> List[PageDecision]:
    """Migrate pages remotely accessed by (essentially) a single node.

    A page qualifies when one node performs at least ``single_node_share``
    of its accesses and the page does not already live there.
    """
    decisions: List[PageDecision] = []
    for sample in hot_pages:
        if len(decisions) >= budget:
            break
        total = sample.total
        if total == 0:
            continue
        dominant = sample.dominant_node
        if sample.node_accesses[dominant] < single_node_share * total:
            continue
        current = placement(sample.page)
        if current is None or current == dominant:
            continue
        decisions.append(
            PageDecision(sample.page, sample.domain_id, Action.MIGRATE, dominant)
        )
    return decisions


def interleave_decisions(
    hot_pages: Sequence[HotPageSample],
    placement: PlacementFn,
    overloaded: Sequence[int],
    underloaded: Sequence[int],
    budget: int,
    rng: np.random.Generator,
) -> List[PageDecision]:
    """Randomly spread hot pages from overloaded to underloaded nodes."""
    if not overloaded or not underloaded:
        return []
    overloaded_set = set(overloaded)
    targets = list(underloaded)
    decisions: List[PageDecision] = []
    for sample in hot_pages:
        if len(decisions) >= budget:
            break
        current = placement(sample.page)
        if current is None or current not in overloaded_set:
            continue
        dst = int(targets[rng.integers(len(targets))])
        decisions.append(
            PageDecision(sample.page, sample.domain_id, Action.INTERLEAVE, dst)
        )
    return decisions


def replication_decisions(
    hot_pages: Sequence[HotPageSample],
    placement: PlacementFn,
    budget: int,
    max_write_fraction: float = 0.05,
    min_sharer_nodes: int = 2,
) -> List[PageDecision]:
    """Replicate hot, (almost) read-only pages shared by several nodes.

    Kept for completeness and for the ablation benchmark; the engine
    disables it by default, like the paper's Xen port.
    """
    decisions: List[PageDecision] = []
    for sample in hot_pages:
        if len(decisions) >= budget:
            break
        if sample.write_fraction > max_write_fraction:
            continue
        sharer_nodes = sum(1 for c in sample.node_accesses if c > 0)
        if sharer_nodes < min_sharer_nodes:
            continue
        current = placement(sample.page)
        if current is None:
            continue
        decisions.append(
            PageDecision(sample.page, sample.domain_id, Action.REPLICATE, current)
        )
    return decisions
