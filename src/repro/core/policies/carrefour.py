"""Carrefour as a hypervisor NUMA policy, stacked on a static base policy.

The paper evaluates "first-touch / Carrefour" and "round-4K / Carrefour":
the static base decides initial placement, Carrefour then migrates hot
pages each epoch. The engine's system component lives in the hypervisor
and migrates pages through the internal interface; the user component
(conceptually a dom0 process) sends command batches through the
``CARREFOUR_CONTROL`` hypercall when a hypercall channel is provided.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.carrefour.engine import (
    CarrefourConfig,
    CarrefourEngine,
    SystemComponent,
)
from repro.carrefour.heuristics import PageDecision
from repro.core.interface import InternalInterface
from repro.core.page_queue import PageEvent
from repro.core.policies.base import EpochObservation, NumaPolicy
from repro.hypervisor.domain import Domain


class CarrefourPolicy(NumaPolicy):
    """Dynamic page migration on top of a static base policy.

    Args:
        base: the static policy providing initial placement and fault
            handling (round-4K or first-touch; never round-1G).
        internal: the hypervisor-side interface used for migrations.
        config: Carrefour thresholds.
        rng: deterministic randomness for the interleave heuristic.
        command_channel: optional callable carrying decision batches — the
            policy manager wires this to the CARREFOUR_CONTROL hypercall.
    """

    def __init__(
        self,
        base: NumaPolicy,
        internal: InternalInterface,
        config: CarrefourConfig = CarrefourConfig(),
        rng: Optional[np.random.Generator] = None,
        command_channel=None,
    ):
        self.base = base
        self.internal = internal
        self.name = f"{base.name}/carrefour"
        # The domain of the running iteration, held weakly: the domain
        # owns this policy (``numa_policy``).
        self._current_domain: Callable[[], Optional[Domain]] = lambda: None
        system = SystemComponent(
            counters=internal.machine.counters,
            placement=self._placement,
            apply_fn=self._apply_decision,
            placement_many=self._placement_many,
        )
        self.engine = CarrefourEngine(
            system=system,
            config=config,
            rng=rng or np.random.default_rng(internal.machine.config.rng_seed),
            command_channel=command_channel,
        )

    # ------------------------------------------------------------------
    # Static behaviour delegates to the base policy

    @property
    def is_dynamic(self) -> bool:
        return True

    @property
    def wants_page_events(self) -> bool:
        return self.base.wants_page_events

    @property
    def requires_iommu_disabled(self) -> bool:
        return self.base.requires_iommu_disabled

    def populate(self, domain: Domain) -> None:
        self.base.populate(domain)

    def on_hypervisor_fault(
        self, domain: Domain, vcpu_id: int, gpfn: int, vcpu_node: int
    ) -> int:
        return self.base.on_hypervisor_fault(domain, vcpu_id, gpfn, vcpu_node)

    def on_page_events(
        self, domain: Domain, events: Sequence[PageEvent]
    ) -> Tuple[int, int]:
        return self.base.on_page_events(domain, events)

    # ------------------------------------------------------------------
    # Dynamic behaviour

    def on_epoch(self, domain: Domain, observation: EpochObservation) -> float:
        """Run one Carrefour iteration; returns the overhead in seconds."""
        self._current_domain = weakref.ref(domain)
        result = self.engine.run_iteration(observation)
        cost = self.engine.iteration_cost_seconds(result)
        cost += self.internal.take_migration_seconds()
        return cost

    def apply_commands(self, decisions: Sequence[PageDecision]) -> int:
        """Entry point for the CARREFOUR_CONTROL hypercall handler."""
        return self.engine.system.apply(decisions)

    def shutdown(self) -> None:
        """Release the performance counters."""
        self.engine.shutdown()

    def describe(self) -> str:
        return f"carrefour on top of {self.base.name}"

    # ------------------------------------------------------------------
    # System component callbacks

    def _placement(self, page: int) -> Optional[int]:
        domain = self._current_domain()
        if domain is None:
            return None
        return self.internal.node_of_gpfn(domain, page)

    def _placement_many(self, pages) -> Optional[np.ndarray]:
        domain = self._current_domain()
        if domain is None:
            return None
        return self.internal.nodes_of_gpfns(domain, pages)

    def _apply_decision(self, decision: PageDecision) -> bool:
        domain = self._current_domain()
        if domain is None:
            return False
        # The port discards replication (section 3.4): treat a replicate
        # decision as a no-op if one slips through with replication off.
        from repro.carrefour.heuristics import Action

        if decision.action is Action.REPLICATE:
            return False
        return self.internal.migrate_page(domain, decision.page, decision.dst_node)
