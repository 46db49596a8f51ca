"""Test-only oracle: Carrefour's per-sample heuristics and scalar decide.

The production user component decides through boolean masks over the
columnar sample arrays (:meth:`repro.carrefour.engine.UserComponent.decide`).
This module keeps the original per-sample walk — one placement lookup and
one :class:`~repro.hardware.counters.HotPageSample` per sample — as the
reference the mask path must match decision for decision, in the same
order, with the same RNG draws.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.carrefour.engine import IterationResult, UserComponent
from repro.carrefour.heuristics import Action, PageDecision
from repro.carrefour.metrics import CarrefourMetrics
from repro.hardware.counters import HotPageSample

#: Returns the node currently backing a page (None if unmapped).
PlacementFn = Callable[[int], Optional[int]]


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
        dominant = int(np.argmax(sample.node_accesses))
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


def decide(
    user: UserComponent,
    metrics: CarrefourMetrics,
    hot_pages: Sequence[HotPageSample],
    placement: PlacementFn,
) -> IterationResult:
    """Choose heuristics from the global metrics, then pick pages."""
    result = IterationResult(metrics=metrics)
    if metrics.access_rate_per_s < user.config.min_access_rate_per_s:
        return result

    result.interleave_enabled = (
        metrics.imbalance > user.config.imbalance_threshold
    )
    congested = (
        metrics.max_link_rho > user.config.link_rho_threshold
        or metrics.local_fraction < user.config.locality_threshold
    )
    result.migration_enabled = congested
    result.replication_enabled = congested and user.config.enable_replication

    budget = user.config.migration_budget
    decided_pages = set()

    def remaining() -> int:
        return budget - len(result.decisions)

    if result.replication_enabled and remaining() > 0:
        for decision in replication_decisions(
            hot_pages, placement, remaining()
        ):
            result.decisions.append(decision)
            decided_pages.add(decision.page)

    if result.migration_enabled and remaining() > 0:
        for decision in migration_decisions(
            hot_pages,
            placement,
            remaining(),
            user.config.single_node_share,
        ):
            if decision.page not in decided_pages:
                result.decisions.append(decision)
                decided_pages.add(decision.page)

    if result.interleave_enabled and remaining() > 0:
        candidates = [s for s in hot_pages if s.page not in decided_pages]
        for decision in interleave_decisions(
            candidates,
            placement,
            metrics.overloaded_nodes,
            metrics.underloaded_nodes,
            remaining(),
            user.rng,
        ):
            result.decisions.append(decision)
            decided_pages.add(decision.page)
    return result
