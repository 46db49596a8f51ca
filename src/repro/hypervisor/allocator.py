"""The Xen heap allocator and the default round-1G placement.

Xen eagerly allocates a domain's whole physical memory at creation (paper
section 3.3). It first packs the domain onto the minimal number of
underloaded NUMA nodes that can host its vCPUs and memory — the domain's
*home nodes* — then fills the guest-physical space:

* by regions of 1 GiB, round-robin over the home nodes;
* falling back to 2 MiB regions, then 4 KiB pages, on fragmentation or for
  remainders;
* the first and last guest-physical GiB are always fragmented (BIOS and
  I/O windows) and are populated at 4 KiB granularity.

This module also provides the per-page allocation primitives used by the
other policies (round-4K at domain build, first-touch at fault time), with
Linux-style round-robin fallback when the preferred node is exhausted.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.config import SimConfig
from repro.errors import OutOfMemoryError
from repro.hardware.machine import Machine
from repro.hypervisor.domain import Domain
from repro.util import RoundRobin as _RoundRobin

GIB = 1 << 30
MIB_2 = 2 << 20


def choose_home_nodes(
    machine: Machine,
    num_vcpus: int,
    memory_pages: int,
    reserved_cpus: Sequence[int] = (),
    preferred: Optional[Sequence[int]] = None,
) -> Tuple[int, ...]:
    """Pick the minimal set of underloaded nodes for a new domain.

    Mirrors Xen's soft-affinity placement: reserve one physical CPU per
    vCPU, pack onto as few nodes as possible, require enough free frames.

    Args:
        machine: the hardware.
        num_vcpus: vCPUs to host (one pCPU reserved each).
        memory_pages: frames the domain needs.
        reserved_cpus: pCPUs already claimed by other domains.
        preferred: explicit node list (validated, used as-is) — the paper
            pins VM placement in the multi-VM experiments.
    """
    topo = machine.topology
    if preferred is not None:
        nodes = tuple(preferred)
        for n in nodes:
            if not 0 <= n < topo.num_nodes:
                raise OutOfMemoryError(f"preferred node {n} does not exist")
        return nodes

    reserved = set(reserved_cpus)
    free_cpus = {
        n: sum(1 for c in topo.cpus_of_node(n) if c not in reserved)
        for n in range(topo.num_nodes)
    }
    free_frames = {
        n: machine.memory.free_frames_on(n) for n in range(topo.num_nodes)
    }
    # Greedy: order nodes by free capacity, take the fewest that fit.
    order = sorted(
        range(topo.num_nodes),
        key=lambda n: (free_cpus[n], free_frames[n]),
        reverse=True,
    )
    chosen: List[int] = []
    cpus_needed, frames_needed = num_vcpus, memory_pages
    for node in order:
        if cpus_needed <= 0 and frames_needed <= 0:
            break
        if free_cpus[node] == 0 and free_frames[node] == 0:
            continue
        chosen.append(node)
        cpus_needed -= free_cpus[node]
        frames_needed -= free_frames[node]
    if cpus_needed > 0 or frames_needed > 0:
        raise OutOfMemoryError(
            f"cannot place domain: short {max(cpus_needed, 0)} CPUs, "
            f"{max(frames_needed, 0)} frames"
        )
    return tuple(sorted(chosen))


class XenHeapAllocator:
    """Domain memory population on top of the machine frame allocator."""

    def __init__(self, machine: Machine, config: SimConfig):
        self.machine = machine
        self.config = config
        # Region sizes in simulated pages (at least one page each).
        self.gib_pages = max(1, GIB // config.page_bytes)
        self.mib2_pages = max(1, MIB_2 // config.page_bytes)

    @staticmethod
    def _trace_populate(event: str, domain: Domain, pages: int) -> None:
        tr = obs.tracer()
        if tr.enabled:
            tr.instant(
                event, cat="hypervisor", domain=domain.domain_id, pages=pages
            )

    # ------------------------------------------------------------------
    # Whole-domain population

    def populate_round_1g(self, domain: Domain) -> None:
        """Xen's default placement: 1 GiB regions round-robin on home nodes.

        The first and last guest-physical GiB are treated as fragmented
        (BIOS / I/O windows) and populated page-by-page.
        """
        total = domain.memory_pages
        frag_head = min(self.gib_pages, total)
        frag_tail = min(self.gib_pages, max(0, total - frag_head))
        middle = total - frag_head - frag_tail

        rr = _RoundRobin(domain.home_nodes)
        gpfn = 0
        gpfn = self._populate_pages(domain, gpfn, frag_head, rr)
        gpfn = self._populate_regions(domain, gpfn, middle, rr)
        gpfn = self._populate_pages(domain, gpfn, frag_tail, rr)
        assert gpfn == total
        domain.built = True
        self._trace_populate("allocator.populate_round_1g", domain, total)

    def populate_round_4k(self, domain: Domain) -> None:
        """Static 4 KiB round-robin over the home nodes (paper section 4.3)."""
        rr = _RoundRobin(domain.home_nodes)
        self._populate_pages(domain, 0, domain.memory_pages, rr)
        domain.built = True
        self._trace_populate("allocator.populate_round_4k", domain, domain.memory_pages)

    def populate_empty(self, domain: Domain) -> None:
        """Leave all entries unpopulated — every first access faults.

        Used when a domain boots directly under first-touch (the common
        paper configuration boots round-4K then switches, but the empty
        mode exercises the pure fault-driven path).
        """
        domain.built = True
        self._trace_populate("allocator.populate_empty", domain, 0)

    def depopulate(self, domain: Domain) -> int:
        """Free every frame of the domain (teardown). Returns frames freed."""
        span = domain.gpfn_range()
        mfns = domain.p2m.remove_many(
            np.arange(span.start, span.stop, dtype=np.int64)
        )
        self.machine.memory.free_frames_many(mfns)
        domain.built = False
        self._trace_populate("allocator.depopulate", domain, int(mfns.size))
        return int(mfns.size)

    # ------------------------------------------------------------------
    # Page-level primitives (used by policies)

    def alloc_page_on(self, node: int) -> int:
        """Allocate one frame on ``node``, with round-robin fallback.

        Like Linux's first-touch fallback (paper section 3.1): if the
        preferred node is exhausted, steal from the others round-robin.
        """
        mfn = self.machine.memory.alloc_frames(node, 1)
        if mfn is not None:
            return mfn
        num = self.machine.num_nodes
        for offset in range(1, num):
            candidate = (node + offset) % num
            mfn = self.machine.memory.alloc_frames(candidate, 1)
            if mfn is not None:
                return mfn
        raise OutOfMemoryError("machine is out of memory")

    def free_page(self, mfn: int) -> None:
        """Return one frame to the heap."""
        self.machine.memory.free_frames(mfn, 1)

    def alloc_pages_on(self, node: int, count: int) -> np.ndarray:
        """``count`` frames as repeated :meth:`alloc_page_on` calls.

        Per node the frames come off the extent list front to back, so
        draining the preferred node and then the round-robin fallback
        nodes in bulk yields exactly the frames the scalar loop would.
        """
        memory = self.machine.memory
        if count < 1:
            return np.empty(0, dtype=np.int64)
        out = np.empty(count, dtype=np.int64)
        filled = 0
        num = self.machine.num_nodes
        for offset in range(num):
            if filled == count:
                break
            candidate = (node + offset) % num
            take = min(memory.free_frames_on(candidate), count - filled)
            if take:
                out[filled : filled + take] = memory.alloc_singles(
                    candidate, take
                )
                filled += take
        if filled < count:
            raise OutOfMemoryError("machine is out of memory")
        return out

    def free_pages(self, mfns: Union[Sequence[int], np.ndarray]) -> None:
        """Return a batch of single frames to the heap."""
        self.machine.memory.free_frames_many(mfns)

    # ------------------------------------------------------------------
    # Internals

    def _populate_pages(
        self, domain: Domain, gpfn: int, count: int, rr: "_RoundRobin"
    ) -> int:
        if count < 1:
            return gpfn
        memory = self.machine.memory
        pattern = np.asarray(rr.next_many(count), dtype=np.int64)
        node_counts = np.bincount(pattern, minlength=self.machine.num_nodes)
        if all(
            memory.free_frames_on(n) >= int(c)
            for n, c in enumerate(node_counts.tolist())
            if c
        ):
            # Per node, repeated single allocations are front-to-back and
            # independent of the other nodes, so each node's share can be
            # carved out in one call and scattered into pattern order.
            mfns = np.empty(count, dtype=np.int64)
            for node, node_count in enumerate(node_counts.tolist()):
                if node_count:
                    positions = np.nonzero(pattern == node)[0]
                    mfns[positions] = memory.alloc_singles(node, node_count)
            domain.p2m.set_entries(
                np.arange(gpfn, gpfn + count, dtype=np.int64), mfns
            )
            return gpfn + count
        # A node would run dry mid-way: the cross-node fallback order is
        # position-dependent, so replay the already-drawn pattern serially.
        for node in pattern.tolist():
            mfn = self.alloc_page_on(node)
            domain.p2m.set_entry(gpfn, mfn)
            gpfn += 1
        return gpfn

    def _populate_regions(
        self, domain: Domain, gpfn: int, count: int, rr: "_RoundRobin"
    ) -> int:
        """Fill ``count`` pages using 1G -> 2M -> 4K fallback."""
        remaining = count
        while remaining > 0:
            placed = False
            for region in (self.gib_pages, self.mib2_pages, 1):
                if remaining < region:
                    continue
                node = rr.peek()
                mfn = self.machine.memory.alloc_frames(node, region)
                if mfn is None:
                    continue
                rr.next()
                if region == 1:
                    domain.p2m.set_entry(gpfn, mfn)
                else:
                    domain.p2m.set_entries(
                        np.arange(gpfn, gpfn + region, dtype=np.int64),
                        np.arange(mfn, mfn + region, dtype=np.int64),
                    )
                gpfn += region
                remaining -= region
                placed = True
                break
            if not placed:
                # Total fragmentation on the preferred node: single pages
                # with cross-node fallback.
                node = rr.next()
                mfn = self.alloc_page_on(node)
                domain.p2m.set_entry(gpfn, mfn)
                gpfn += 1
                remaining -= 1
        return gpfn
