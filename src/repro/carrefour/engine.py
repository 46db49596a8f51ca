"""Carrefour's user/system component split and the iteration loop.

The **system component** (in the kernel — in Xen for the paper's port)
gathers counters and hot-page samples and executes migration commands. The
**user component** (a process — in dom0 for the port) turns the metrics
into per-page decisions. They communicate through a narrow command
interface; in the Xen port that interface is the ``CARREFOUR_CONTROL``
hypercall, trapped by dom0's Linux and forwarded into the hypervisor.
"""

from __future__ import annotations

import inspect
import weakref
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.carrefour.heuristics import (
    Action,
    PageDecision,
    PlacementFn,
    interleave_candidates,
    interleave_decisions,
    migration_candidates,
    migration_decisions,
    replication_candidates,
    replication_decisions,
    sample_arrays,
)
from repro.carrefour.metrics import CarrefourMetrics, compute_metrics
from repro.core.policies.base import EpochObservation
from repro.hardware.counters import HotPageSample, PerfCounters


@dataclass(frozen=True)
class CarrefourConfig:
    """Thresholds of the decision logic (defaults follow Carrefour).

    Attributes:
        min_access_rate_per_s: below this machine-wide access rate the
            engine stays idle — the workload is not memory bound.
        imbalance_threshold: controller imbalance (relative std-dev)
            enabling the interleave heuristic.
        locality_threshold: local-access fraction *below* which the
            migration heuristic turns on.
        link_rho_threshold: interconnect utilisation considered saturated.
        migration_budget: max pages moved per iteration (migrations cost).
        enable_replication: the paper's port discards replication; the
            ablation benchmark flips this on.
        single_node_share: dominance required by the migration heuristic.
        iteration_overhead_seconds: fixed cost of running one iteration —
            IBS sample processing, hot-page sorting and the dom0 round
            trip. Real Carrefour costs a fraction of a percent to a few
            percent of each interval; this is what makes the plain static
            policy win when there is nothing useful to migrate.
    """

    min_access_rate_per_s: float = 1.0e7
    imbalance_threshold: float = 0.35
    locality_threshold: float = 0.80
    link_rho_threshold: float = 0.30
    migration_budget: int = 4096
    enable_replication: bool = False
    single_node_share: float = 0.90
    iteration_overhead_seconds: float = 6.0e-3


@dataclass
class IterationResult:
    """What one Carrefour iteration did."""

    metrics: CarrefourMetrics
    decisions: List[PageDecision] = field(default_factory=list)
    applied: int = 0
    interleave_enabled: bool = False
    migration_enabled: bool = False
    replication_enabled: bool = False


class UserComponent:
    """Decision logic (the dom0 process in the Xen port)."""

    def __init__(self, config: CarrefourConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng

    def decide(
        self,
        metrics: CarrefourMetrics,
        hot_pages: Sequence[HotPageSample],
        placement: PlacementFn,
        placement_many=None,
    ) -> IterationResult:
        """Choose heuristics from the global metrics, then pick pages."""
        result = IterationResult(metrics=metrics)
        if metrics.access_rate_per_s < self.config.min_access_rate_per_s:
            return result

        result.interleave_enabled = (
            metrics.imbalance > self.config.imbalance_threshold
        )
        congested = (
            metrics.max_link_rho > self.config.link_rho_threshold
            or metrics.local_fraction < self.config.locality_threshold
        )
        result.migration_enabled = congested
        result.replication_enabled = congested and self.config.enable_replication

        if placement_many is not None and hot_pages:
            pages, domains, accesses, write_fraction = sample_arrays(hot_pages)
            nodes = placement_many(pages)
            if nodes is not None:
                self._decide_batch(
                    result, metrics, pages, domains, accesses,
                    write_fraction, np.asarray(nodes),
                )
                return result

        budget = self.config.migration_budget
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
                self.config.single_node_share,
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
                self.rng,
            ):
                result.decisions.append(decision)
                decided_pages.add(decision.page)
        return result

    def _decide_batch(
        self,
        result: IterationResult,
        metrics: CarrefourMetrics,
        pages: np.ndarray,
        domains: np.ndarray,
        accesses: np.ndarray,
        write_fraction: np.ndarray,
        nodes: np.ndarray,
    ) -> None:
        """Mask-based page selection, decision-for-decision identical to
        the scalar loops: same budget consumption (candidates count
        against the budget before cross-heuristic dedup, as in the scalar
        walk), same first-occurrence dedup order, and the interleave RNG
        drawn as one array — ``rng.integers(n, size=k)`` consumes the
        stream exactly like ``k`` sequential scalar draws.
        """
        budget = self.config.migration_budget
        decisions = result.decisions
        decided: set = set()

        def decided_mask(candidate_pages: np.ndarray) -> np.ndarray:
            return np.isin(
                candidate_pages,
                np.fromiter(decided, dtype=np.int64, count=len(decided)),
            )

        if result.replication_enabled and budget > len(decisions):
            mask = replication_candidates(accesses, write_fraction, nodes)
            for pos in np.nonzero(mask)[0][: budget - len(decisions)].tolist():
                page = int(pages[pos])
                decisions.append(
                    PageDecision(
                        page, int(domains[pos]), Action.REPLICATE, int(nodes[pos])
                    )
                )
                decided.add(page)

        if result.migration_enabled and budget > len(decisions):
            mask, dominant = migration_candidates(
                accesses, nodes, self.config.single_node_share
            )
            positions = np.nonzero(mask)[0][: budget - len(decisions)]
            cand_pages = pages[positions]
            keep = np.zeros(positions.size, dtype=bool)
            keep[np.unique(cand_pages, return_index=True)[1]] = True
            if decided:
                keep &= ~decided_mask(cand_pages)
            for pos in positions[keep].tolist():
                page = int(pages[pos])
                decisions.append(
                    PageDecision(
                        page, int(domains[pos]), Action.MIGRATE, int(dominant[pos])
                    )
                )
                decided.add(page)

        if (
            result.interleave_enabled
            and budget > len(decisions)
            and metrics.overloaded_nodes
            and metrics.underloaded_nodes
        ):
            targets = np.asarray(list(metrics.underloaded_nodes), dtype=np.int64)
            mask = interleave_candidates(nodes, metrics.overloaded_nodes)
            if decided:
                mask &= ~decided_mask(pages)
            positions = np.nonzero(mask)[0][: budget - len(decisions)]
            if positions.size:
                dsts = targets[self.rng.integers(len(targets), size=positions.size)]
                for pos, dst in zip(positions.tolist(), dsts.tolist()):
                    decisions.append(
                        PageDecision(
                            int(pages[pos]), int(domains[pos]),
                            Action.INTERLEAVE, int(dst),
                        )
                    )


def _owner_callback(callback):
    """A zero-argument getter for ``callback``, weak for bound methods."""
    if inspect.ismethod(callback):
        return weakref.WeakMethod(callback)
    return lambda: callback


class SystemComponent:
    """Counter access and migration execution (inside Xen in the port).

    Args:
        counters: the machine's performance counters; the component claims
            them exclusively — this is why the paper's Table 1 could not
            measure its metrics while Carrefour ran.
        placement: resolves a page to its current node.
        apply_fn: executes one decision (a p2m migration in the Xen port,
            a direct page move in Linux mode); returns True when the page
            actually moved.
        placement_many: optional batch form of ``placement`` — takes a
            page array, returns per-page nodes with -1 for unmapped (or
            None when batch resolution is unavailable, falling back to
            the scalar walk).

    Callbacks that are bound methods are held weakly: their object (a
    Carrefour policy, the Linux NUMA mode) owns this component through
    its engine, and a strong reference back would leave every finished
    world in a reference cycle that only the cyclic collector frees.
    """

    OWNER = "carrefour"

    def __init__(
        self,
        counters: PerfCounters,
        placement: PlacementFn,
        apply_fn: Callable[[PageDecision], bool],
        placement_many=None,
    ):
        self.counters = counters
        self._placement = _owner_callback(placement)
        self._apply_fn = _owner_callback(apply_fn)
        self._placement_many = _owner_callback(placement_many)
        reg = obs.registry()
        self._total_applied = reg.counter("carrefour.applied")
        self._total_commands = reg.counter("carrefour.commands")
        counters.claim(self.OWNER)

    @property
    def placement(self) -> PlacementFn:
        return self._placement()

    @property
    def apply_fn(self) -> Callable[[PageDecision], bool]:
        return self._apply_fn()

    @property
    def placement_many(self):
        return self._placement_many()

    @property
    def total_applied(self) -> int:
        """Decisions that actually moved a page."""
        return self._total_applied.value

    @total_applied.setter
    def total_applied(self, value: int) -> None:
        self._total_applied.value = value

    @property
    def total_commands(self) -> int:
        """Decisions received from the user component."""
        return self._total_commands.value

    @total_commands.setter
    def total_commands(self, value: int) -> None:
        self._total_commands.value = value

    def apply(self, decisions: Sequence[PageDecision]) -> int:
        """Execute a command batch from the user component."""
        applied = 0
        apply_fn = self.apply_fn
        for decision in decisions:
            self.total_commands += 1
            if apply_fn(decision):
                applied += 1
        self.total_applied += applied
        return applied

    def shutdown(self) -> None:
        """Release the performance counters."""
        self.counters.release(self.OWNER)


class CarrefourEngine:
    """One Carrefour instance: user + system components wired together.

    Args:
        system: the in-kernel/in-hypervisor half.
        config: thresholds.
        rng: deterministic random source for the interleave heuristic.
        command_channel: optional callable carrying command batches from
            the user to the system component — the Xen port routes this
            through the ``CARREFOUR_CONTROL`` hypercall. Defaults to a
            direct call.
    """

    def __init__(
        self,
        system: SystemComponent,
        config: CarrefourConfig = CarrefourConfig(),
        rng: Optional[np.random.Generator] = None,
        command_channel: Optional[Callable[[Sequence[PageDecision]], int]] = None,
    ):
        self.system = system
        self.config = config
        self.user = UserComponent(config, rng or np.random.default_rng(0))
        self.command_channel = command_channel or system.apply
        self.history: List[IterationResult] = []
        self._iterations = obs.registry().counter("carrefour.iterations")

    def run_iteration(self, observation: EpochObservation) -> IterationResult:
        """One sampling/decision/apply cycle."""
        metrics = compute_metrics(observation)
        result = self.user.decide(
            metrics,
            observation.hot_pages,
            self.system.placement,
            self.system.placement_many,
        )
        if result.decisions:
            result.applied = self.command_channel(result.decisions)
        self.history.append(result)
        self._iterations.inc()
        tr = obs.tracer()
        if tr.enabled:
            tr.instant(
                "carrefour.iteration",
                cat="policy",
                decisions=len(result.decisions),
                applied=result.applied,
            )
        return result

    def iteration_cost_seconds(self, result: IterationResult) -> float:
        """Fixed engine overhead (migration copy time is accounted by the
        internal interface / Linux backend, not here)."""
        if result.metrics.access_rate_per_s < self.config.min_access_rate_per_s:
            return 0.0
        return self.config.iteration_overhead_seconds

    def shutdown(self) -> None:
        """Stop the engine and release the counters."""
        self.system.shutdown()
