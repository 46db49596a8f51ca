"""Hypercall numbers, dispatch table and cost model.

The paper's external interface adds two hypercalls (section 4.2):

* ``NUMA_SET_POLICY`` — select the NUMA policy of the calling domain
  (switch to first-touch, toggle Carrefour);
* ``NUMA_PAGE_EVENTS`` — hand the hypervisor a batched queue of page
  allocation/release events so first-touch can invalidate released pages.

A third hypercall, ``CARREFOUR_CONTROL``, carries the Carrefour user
component's commands from dom0 into the in-hypervisor system component
(section 4.3: the hypercall is trapped by dom0's Linux and forwarded).

The cost model captures why batching matters (section 4.2.3): each
hypercall pays a fixed guest-exit cost, and the issuing core holds the page
queue lock for the whole call, so concurrent cores serialise behind it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.errors import HypercallError


class Hypercall(enum.Enum):
    """Hypercall numbers understood by this hypervisor."""

    #: Select/switch the NUMA policy of a whole domain.
    NUMA_SET_POLICY = 40
    #: Flush a batched queue of page (alloc/release) events.
    NUMA_PAGE_EVENTS = 41
    #: Carrefour user-component commands (from dom0).
    CARREFOUR_CONTROL = 42
    #: Measurement aid: does nothing, costs like a real hypercall.
    EMPTY = 43


#: Handler signature: (domain_id, vcpu_id, args) -> result.
Handler = Callable[[int, int, Any], Any]


@dataclass(frozen=True)
class HypercallCostModel:
    """Timing of a hypercall, calibrated from the paper's observations.

    Attributes:
        base_seconds: guest exit + entry + dispatch for an empty call.
        per_event_seconds: processing cost per page event in a flushed
            queue. The paper measures that 87.5% of a flush is spent
            invalidating pages and 12.5% sending the queue (section 4.2.4);
            with the default batch of 64 events the model reproduces that
            split: 64 * per_event ≈ 7 * base.
    """

    base_seconds: float = 1.0e-6
    per_event_seconds: float = 0.109e-6

    def flush_cost(self, num_events: int) -> float:
        """Duration of one NUMA_PAGE_EVENTS call carrying ``num_events``."""
        return self.base_seconds + num_events * self.per_event_seconds

    def invalidation_share(self, num_events: int) -> float:
        """Fraction of the flush spent processing events (vs sending)."""
        total = self.flush_cost(num_events)
        return (num_events * self.per_event_seconds) / total if total else 0.0


class HypercallTable:
    """Registry and dispatcher for hypercall handlers."""

    def __init__(self, costs: HypercallCostModel = HypercallCostModel()):
        self._handlers: Dict[Hypercall, Handler] = {}
        self.costs = costs
        #: (count, total_seconds) per hypercall, for the experiments.
        self.stats: Dict[Hypercall, Tuple[int, float]] = {
            call: (0, 0.0) for call in Hypercall
        }
        self._default_empty: Handler = lambda dom, vcpu, args: None
        self._handlers[Hypercall.EMPTY] = self._default_empty

    def register(self, call: Hypercall, handler: Handler) -> None:
        """Install ``handler`` for ``call`` (one handler per number).

        The built-in EMPTY measurement stub may be replaced once; any
        further registration — EMPTY included — raises, so a component
        cannot silently overwrite another's handler.
        """
        current = self._handlers.get(call)
        replacing_default_empty = (
            call is Hypercall.EMPTY and current is self._default_empty
        )
        if current is not None and not replacing_default_empty:
            raise HypercallError(f"handler already registered for {call.name}")
        self._handlers[call] = handler

    def dispatch(self, call: Hypercall, domain_id: int, vcpu_id: int, args: Any = None) -> Any:
        """Execute a hypercall; returns the handler's result.

        A handler that raises still cost the guest an exit: at least
        ``base_seconds`` is charged to ``stats`` before the exception
        propagates (the batching experiment reads this accounting).

        Raises:
            HypercallError: unknown hypercall number.
        """
        handler = self._handlers.get(call)
        if handler is None:
            raise HypercallError(f"no handler for hypercall {call.name}")
        cost = self.costs.base_seconds
        try:
            result = handler(domain_id, vcpu_id, args)
            cost = self._cost_of(call, args)
        finally:
            count, seconds = self.stats[call]
            self.stats[call] = (count + 1, seconds + cost)
        return result

    def _cost_of(self, call: Hypercall, args: Any) -> float:
        if call is Hypercall.NUMA_PAGE_EVENTS and args is not None:
            try:
                return self.costs.flush_cost(len(args))
            except TypeError:
                return self.costs.flush_cost(0)
        return self.costs.base_seconds
