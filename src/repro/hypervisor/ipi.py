"""Virtualised inter-processor interrupt (IPI) cost model.

Figure 5 of the paper: sending an IPI takes ~0.9 us in native mode but
~10.9 us in guest mode, because the send traps into the hypervisor, the
target vCPU must be located and kicked, and both sides pay guest
exits/entries. Applications that block frequently (condition variables,
futexes, network waits) let their CPUs go idle; waking them sends an IPI,
so a high intentional context-switch rate multiplied by the 12x IPI cost is
a large virtualisation overhead (Table 2 column "context switches").

The component decomposition below is a model (the figure's exact labels are
not machine-readable); the totals are the paper's measured 0.9/10.9 us and
the guest breakdown follows its narrative: trap, route, kick, re-enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import SchedulerError


@dataclass(frozen=True)
class IpiComponent:
    """One step of IPI delivery with its cost in seconds."""

    name: str
    seconds: float


#: Native-mode IPI delivery: write ICR, interconnect delivery, handler entry.
NATIVE_COMPONENTS: Tuple[IpiComponent, ...] = (
    IpiComponent("icr_write", 0.2e-6),
    IpiComponent("delivery", 0.3e-6),
    IpiComponent("handler_entry", 0.4e-6),
)

#: Guest-mode IPI delivery: every arrow in the native path grows a guest
#: exit/entry pair and a trip through the hypervisor's virtual APIC.
GUEST_COMPONENTS: Tuple[IpiComponent, ...] = (
    IpiComponent("sender_vmexit", 2.4e-6),
    IpiComponent("virtual_apic_emulation", 2.1e-6),
    IpiComponent("target_vcpu_lookup", 1.6e-6),
    IpiComponent("target_kick_and_wakeup", 2.8e-6),
    IpiComponent("vmentry_and_delivery", 2.0e-6),
)


class IpiModel:
    """IPI send cost in native and guest mode.

    The defaults reproduce Figure 5 (0.9 us native, 10.9 us guest).
    """

    def __init__(
        self,
        native: Tuple[IpiComponent, ...] = NATIVE_COMPONENTS,
        guest: Tuple[IpiComponent, ...] = GUEST_COMPONENTS,
    ):
        self._components = {"native": native, "guest": guest}

    def cost(self, mode: str) -> float:
        """Total IPI send cost in seconds for ``mode`` (native/guest)."""
        return sum(c.seconds for c in self.components(mode))

    def components(self, mode: str) -> Tuple[IpiComponent, ...]:
        """The per-step decomposition for ``mode``."""
        try:
            return self._components[mode]
        except KeyError:
            raise SchedulerError(f"unknown IPI mode {mode!r}") from None

    def wakeup_overhead(self, context_switches_per_s: float, mode: str) -> float:
        """Seconds of IPI overhead per second of run for a switch rate.

        Each intentional context switch that idles the CPU costs one IPI to
        wake the sleeper (paper section 5.3.2).
        """
        return context_switches_per_s * self.cost(mode)
