"""Synchronisation cost model: blocking primitives vs MCS spin loops.

Applications that frequently wait (locks, condition variables, network
packets) context-switch off the CPU; waking them costs an IPI, which is
~12x more expensive in a VM (Figure 5). The paper's Xen+ sidesteps this
for non-consolidated workloads by re-implementing pthread mutexes and
condition variables as MCS spin loops (section 5.3.2): the thread never
leaves the CPU, so no IPI is paid — at the price of burnt spin cycles,
which is why the paper only applies it to the two applications it helps
(facesim, streamcluster) and only in single-VM runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hypervisor.ipi import IpiModel


@dataclass
class SyncModel:
    """Per-thread time overhead of synchronisation.

    Args:
        ipi: the machine's IPI cost model.
        mcs_spin_overhead: fraction of CPU time burnt spinning when MCS
            locks replace blocking primitives.
    """

    ipi: IpiModel = None  # type: ignore[assignment]
    mcs_spin_overhead: float = 0.03

    def __post_init__(self):
        if self.ipi is None:
            self.ipi = IpiModel()

    def overhead_fraction(
        self,
        ctx_switches_per_core_s: float,
        mode: str,
        mcs_locks: bool = False,
    ) -> float:
        """Fraction of a core's time lost to waits/wakeups.

        Args:
            ctx_switches_per_core_s: intentional context switches per core
                per second (Table 2 rates).
            mode: "native" or "guest" (which IPI cost applies).
            mcs_locks: MCS spin loops replace blocking primitives — the
                context switches disappear ("zero intentional context
                switches per second" after the modification, section
                5.3.2) and a flat spin overhead remains.
        """
        if ctx_switches_per_core_s <= 0:
            return 0.0
        if mcs_locks:
            return self.mcs_spin_overhead
        overhead = self.ipi.wakeup_overhead(ctx_switches_per_core_s, mode)
        # A core that waits this often overlaps wakeups with whatever work
        # remains; the loss saturates below 100% (memcached, the extreme
        # case at 127k switches/s, lands around the paper's ~700%).
        return min(overhead, 0.88)
