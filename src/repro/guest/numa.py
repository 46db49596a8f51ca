"""Native Linux NUMA policies (the paper's bare-metal baseline).

In native mode the kernel maps virtual pages straight to machine frames,
so the NUMA policy acts in the guest page table (paper section 3):

* **first-touch** (Linux default): allocate from the faulting thread's
  node, round-robin fallback when it is full;
* **round-4K**: allocate page frames from the nodes in turn;
* either can be combined with **Carrefour**, which migrates hot pages
  between nodes at run time.

This module is the Linux counterpart of :mod:`repro.core.policies`; the
experiments of Figure 2 and Table 1 run on it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.carrefour.engine import (
    CarrefourConfig,
    CarrefourEngine,
    SystemComponent,
)
from repro.carrefour.heuristics import Action, PageDecision
from repro.core.policies.base import EpochObservation
from repro.errors import PolicyError
from repro.guest.page_alloc import NativePageAllocator
from repro.guest.process import Thread
from repro.hardware.machine import Machine


class LinuxNumaMode:
    """The native memory-placement machinery of one Linux boot.

    Args:
        machine: the hardware.
        policy: "first-touch" or "round-4k".
        carrefour: run the Carrefour daemon on top.
        carrefour_config: engine thresholds.
        page_copy_seconds: migration copy cost per page (defaults like the
            hypervisor's internal interface).
    """

    POLICIES = ("first-touch", "round-4k")

    def __init__(
        self,
        machine: Machine,
        policy: str = "first-touch",
        carrefour: bool = False,
        carrefour_config: Optional[CarrefourConfig] = None,
        page_copy_seconds: Optional[float] = None,
    ):
        if policy not in self.POLICIES:
            raise PolicyError(f"unknown Linux policy {policy!r}")
        self.machine = machine
        self.policy = policy
        self.allocator = NativePageAllocator(machine)
        #: vpfn -> mfn map maintained for Carrefour's placement lookups.
        self._frames: Dict[int, int] = {}
        if page_copy_seconds is None:
            bw = machine.topology.memory_controller_gib_s * (1 << 30)
            page_copy_seconds = 2.0 * machine.config.page_bytes / bw
        self.page_copy_seconds = page_copy_seconds
        self.migration_seconds = 0.0
        self.pages_migrated = 0
        #: Optional hook (vpfn, node) fired when a page gains a frame.
        self.on_page_placed: Optional[Callable[[int, int], None]] = None
        #: Optional hook (vpfn, node) fired when Carrefour moves a page.
        self.on_page_moved: Optional[Callable[[int, int], None]] = None
        self.engine: Optional[CarrefourEngine] = None
        if carrefour:
            system = SystemComponent(
                counters=machine.counters,
                placement_many=self.nodes_of_pages,
                apply_fn=self._apply_decision,
            )
            self.engine = CarrefourEngine(
                system=system,
                config=carrefour_config or CarrefourConfig(),
                rng=np.random.default_rng(machine.config.rng_seed),
            )

    @property
    def name(self) -> str:
        return self.policy + ("/carrefour" if self.engine else "")

    # ------------------------------------------------------------------
    # Page-fault backing (plugged into GuestAddressSpace)

    def backing(self, vpfn: int, thread: Thread) -> int:
        """Pick the machine frame for a faulting page."""
        if self.policy == "first-touch":
            mfn = self.allocator.alloc_on(thread.node)
        else:
            mfn = self.allocator.alloc_round_robin()
        self._frames[vpfn] = mfn
        if self.on_page_placed is not None:
            self.on_page_placed(vpfn, self.machine.node_of_frame(mfn))
        return mfn

    def release_vpfn(self, vpfn: int) -> bool:
        """Free the frame *currently* backing ``vpfn`` (munmap path).

        The vpfn-keyed map is authoritative: Carrefour may have migrated
        the page since the fault, so the frame recorded in the process
        page table could be stale.
        """
        mfn = self._frames.pop(vpfn, None)
        if mfn is None:
            return False
        self.allocator.free(mfn)
        return True

    # ------------------------------------------------------------------
    # Carrefour plumbing

    def nodes_of_pages(self, pages: np.ndarray) -> np.ndarray:
        """Node currently backing each virtual page, -1 where unmapped."""
        mfns = np.array(
            [self._frames.get(p, -1) for p in pages.tolist()],
            dtype=np.int64,
        )
        nodes = np.full(mfns.shape, -1, dtype=np.int64)
        mapped = mfns >= 0
        nodes[mapped] = self.machine.nodes_of_frames(mfns[mapped])
        return nodes

    def on_epoch(self, observation: EpochObservation) -> float:
        """Run one Carrefour iteration (no-op without the daemon)."""
        if self.engine is None:
            return 0.0
        result = self.engine.run_iteration(observation)
        cost = self.engine.iteration_cost_seconds(result)
        cost += self.migration_seconds
        self.migration_seconds = 0.0
        return cost

    def shutdown(self) -> None:
        """Stop the Carrefour daemon, releasing the counters."""
        if self.engine is not None:
            self.engine.shutdown()

    def _apply_decision(self, decision: PageDecision) -> bool:
        if decision.action is Action.REPLICATE:
            return False
        mfn = self._frames.get(decision.page)
        if mfn is None:
            return False
        src = self.machine.node_of_frame(mfn)
        if src == decision.dst_node:
            return False
        new_mfn = self.machine.memory.alloc_frames(decision.dst_node, 1)
        if new_mfn is None:
            return False
        self._frames[decision.page] = new_mfn
        self.allocator.free(mfn)
        self.migration_seconds += self.page_copy_seconds
        self.pages_migrated += 1
        if self.on_page_moved is not None:
            self.on_page_moved(decision.page, decision.dst_node)
        return True
