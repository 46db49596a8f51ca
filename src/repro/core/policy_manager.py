"""Per-domain NUMA policy selection and the hypercall handlers.

Implements the external interface's semantics (paper section 4.2):

* a domain boots with **round-4K** by default; **round-1G** is available
  only as a boot option (it is rarely the best policy — section 5.4.1 —
  so no runtime switch to it exists);
* at run time, the ``NUMA_SET_POLICY`` hypercall can switch the domain to
  **first-touch** and can activate/deactivate **Carrefour**;
* the ``NUMA_PAGE_EVENTS`` hypercall delivers batched alloc/release queues
  to the active policy (only first-touch consumes them);
* the ``CARREFOUR_CONTROL`` hypercall carries the dom0 user component's
  decision batches into the in-hypervisor system component.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.carrefour.engine import CarrefourConfig
from repro.core.interface import InternalInterface
from repro.core.page_queue import PageEventBatch
from repro.core.policies.base import NumaPolicy, PolicyName, PolicySpec
from repro.core.policies.carrefour import CarrefourPolicy
from repro.core.policies.factory import make_policy
from repro.errors import HypercallError, PolicyError
from repro.hypervisor.domain import Domain
from repro.hypervisor.hypercalls import Hypercall, HypercallTable


@dataclass
class PolicyChange:
    """Audit record of one policy switch."""

    domain_id: int
    old: Optional[str]
    new: str


class PolicyManager:
    """Owns the policy objects of every domain and the NUMA hypercalls."""

    def __init__(
        self,
        internal: InternalInterface,
        hypercalls: HypercallTable,
        carrefour_config: Optional[CarrefourConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.internal = internal
        # Weak: the table holds this manager's handlers, and the manager
        # owns the domains whose Carrefour engines dispatch through the
        # table — strong references both ways would make every hypervisor
        # a reference cycle that only the cyclic collector frees.
        self._hypercalls = weakref.ref(hypercalls)
        self.carrefour_config = carrefour_config or CarrefourConfig()
        self.rng = rng or np.random.default_rng(
            internal.machine.config.rng_seed
        )
        self._domains: Dict[int, Domain] = {}
        self.changes: list = []
        #: Page-event flushes that arrived while no policy wanted them.
        self.ignored_event_flushes = 0
        hypercalls.register(Hypercall.NUMA_SET_POLICY, self._hc_set_policy)
        hypercalls.register(Hypercall.NUMA_PAGE_EVENTS, self._hc_page_events)
        hypercalls.register(Hypercall.CARREFOUR_CONTROL, self._hc_carrefour)

    # ------------------------------------------------------------------
    # Domain lifecycle

    def boot_domain(
        self, domain: Domain, boot_policy: Optional[PolicySpec] = None
    ) -> None:
        """Install the boot policy and populate the domain's memory.

        ``boot_policy`` defaults to round-4K (section 4.2.1); round-1G is
        accepted here (the boot option) but not at run time.
        """
        if domain.domain_id in self._domains:
            raise PolicyError(f"domain {domain.domain_id} already booted")
        spec = boot_policy or PolicySpec(PolicyName.ROUND_4K)
        policy = self._build(spec, first_touch_lazy=True, domain_id=domain.domain_id)
        domain.numa_policy = policy
        policy.populate(domain)
        self._domains[domain.domain_id] = domain
        self.changes.append(PolicyChange(domain.domain_id, None, policy.name))

    def forget_domain(self, domain: Domain) -> None:
        """Drop a destroyed domain (shutting down its Carrefour engine)."""
        stored = self._domains.pop(domain.domain_id, None)
        if stored is not None and isinstance(stored.numa_policy, CarrefourPolicy):
            stored.numa_policy.shutdown()

    def domain(self, domain_id: int) -> Domain:
        try:
            return self._domains[domain_id]
        except KeyError:
            raise PolicyError(f"unknown domain {domain_id}") from None

    # ------------------------------------------------------------------
    # Runtime switching (the NUMA_SET_POLICY semantics)

    def set_policy(
        self,
        domain_id: int,
        base: Optional[PolicyName] = None,
        carrefour: Optional[bool] = None,
    ) -> NumaPolicy:
        """Switch a running domain's policy.

        Args:
            domain_id: target domain.
            base: new static base; only first-touch and round-4K are legal
                at run time (round-1G is boot-only). None keeps the
                current base.
            carrefour: activate/deactivate Carrefour; None keeps the
                current state.
        """
        domain = self.domain(domain_id)
        current = domain.numa_policy
        current_base, current_carrefour = self._split(current)
        if base is None:
            base = current_base
        if base is PolicyName.ROUND_1G and current_base is not PolicyName.ROUND_1G:
            raise PolicyError(
                "round-1g is a boot option, not a runtime policy (section 4.2.1)"
            )
        if carrefour is None:
            carrefour = current_carrefour
        if carrefour and base is PolicyName.ROUND_1G:
            raise PolicyError("Carrefour does not run on top of round-1g")
        spec = PolicySpec(base, carrefour)
        if current is not None and isinstance(current, CarrefourPolicy):
            current.shutdown()
        # A runtime switch keeps the current mapping: only pages released
        # *after* the switch drift toward first-touch placement.
        policy = self._build(spec, first_touch_lazy=False, domain_id=domain_id)
        old_name = current.name if current is not None else None
        domain.numa_policy = policy
        self.changes.append(PolicyChange(domain_id, old_name, policy.name))
        return policy

    # ------------------------------------------------------------------
    # Hypercall handlers

    def _hc_set_policy(self, domain_id: int, vcpu_id: int, args: Any) -> str:
        if not isinstance(args, dict) or "policy" not in args:
            raise HypercallError("NUMA_SET_POLICY needs a {'policy': ...} dict")
        raw = args["policy"]
        try:
            base = PolicyName(raw) if raw is not None else None
        except ValueError:
            raise HypercallError(f"unknown NUMA policy {raw!r}") from None
        policy = self.set_policy(domain_id, base, args.get("carrefour"))
        return policy.name

    def _hc_page_events(self, domain_id: int, vcpu_id: int, args: Any):
        if args is not None and not isinstance(
            args, (list, tuple, PageEventBatch)
        ):
            raise HypercallError("NUMA_PAGE_EVENTS needs a list of events")
        domain = self.domain(domain_id)
        policy = domain.numa_policy
        if policy is None or not policy.wants_page_events:
            self.ignored_event_flushes += 1
            return (0, 0)
        return policy.on_page_events(domain, args or [])

    def _hc_carrefour(self, domain_id: int, vcpu_id: int, args: Any) -> int:
        """Route a dom0 command batch to the target domain's engine.

        The paper's user component runs in dom0 and its hypercall is
        forwarded into Xen — so the *caller* is dom0 and the target domain
        travels in the arguments.
        """
        if domain_id != 0:
            raise HypercallError("CARREFOUR_CONTROL may only come from dom0")
        if not isinstance(args, dict):
            raise HypercallError("CARREFOUR_CONTROL needs a dict payload")
        if "target_domain" not in args or "decisions" not in args:
            raise HypercallError(
                "CARREFOUR_CONTROL needs target_domain and decisions"
            )
        target = self.domain(args["target_domain"])
        policy = target.numa_policy
        if not isinstance(policy, CarrefourPolicy):
            raise HypercallError(
                f"domain {target.domain_id} does not run Carrefour"
            )
        return policy.apply_commands(args["decisions"])

    # ------------------------------------------------------------------
    # Internals

    def _build(
        self, spec: PolicySpec, first_touch_lazy: bool, domain_id: int
    ) -> NumaPolicy:
        command_channel = None
        if spec.carrefour:
            # Carrefour's user component runs in dom0 and its command
            # batches enter the hypervisor through CARREFOUR_CONTROL.
            hypercalls = self._hypercalls

            def command_channel(decisions, _domid=domain_id):
                return hypercalls().dispatch(
                    Hypercall.CARREFOUR_CONTROL,
                    0,
                    0,
                    {"target_domain": _domid, "decisions": list(decisions)},
                )

        return make_policy(
            spec,
            self.internal,
            first_touch_lazy=first_touch_lazy,
            carrefour_config=self.carrefour_config,
            rng=self.rng,
            command_channel=command_channel,
        )

    @staticmethod
    def _split(policy: Optional[NumaPolicy]):
        if policy is None:
            return PolicyName.ROUND_4K, False
        if isinstance(policy, CarrefourPolicy):
            return PolicyName(policy.base.name), True
        return PolicyName(policy.name), False
