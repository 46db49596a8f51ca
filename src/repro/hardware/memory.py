"""Machine memory: per-node frame ranges and an extent-based frame allocator.

The machine address space is statically partitioned into per-node NUMA
regions (paper section 3): node ``n`` owns the contiguous machine frame
range ``[n * frames_per_node, (n+1) * frames_per_node)``. The allocator
tracks free extents per node, which lets the Xen heap allocator above it ask
for *contiguous* runs (1 GiB / 2 MiB regions) and observe fragmentation.

Frame numbers here are *simulated* frames (see :mod:`repro.config`): the
mechanics are 4 KiB-page mechanics, applied to a configurable granularity.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import OutOfMemoryError, TopologyError

Mfn = int  # machine frame number
NodeId = int


@dataclass
class MemoryController:
    """Per-node memory controller with a peak throughput.

    The latency model turns per-epoch access byte counts into a utilisation
    ``rho`` of this controller; a contended controller is the dominant NUMA
    slowdown on AMD48 (Table 3: 156 -> 697 cycles for a local access).
    """

    node: NodeId
    bandwidth_gib_s: float
    bytes_served: int = 0

    def serve(self, nbytes: int) -> None:
        """Account ``nbytes`` of traffic for the current epoch."""
        self.bytes_served += nbytes

    def utilization(self, seconds: float) -> float:
        """Fraction of peak bandwidth used over ``seconds`` (may exceed 1

        when demand outstrips capacity; callers clamp as needed).
        """
        if seconds <= 0:
            return 0.0
        capacity = self.bandwidth_gib_s * (1 << 30) * seconds
        return self.bytes_served / capacity

    def reset(self) -> None:
        """Clear per-epoch accounting."""
        self.bytes_served = 0


class _ExtentList:
    """Free extents of one node, kept sorted and coalesced.

    Extents are ``(start, length)`` pairs over machine frame numbers. This
    is the textbook first-fit extent allocator: enough to model the
    fragmentation behaviour that drives Xen's 1G -> 2M -> 4K fallback.
    """

    def __init__(self, start: Mfn, length: int):
        self._starts: List[Mfn] = [start]
        self._lengths: List[int] = [length]
        self.free_frames = length

    def alloc(self, count: int, align: int = 1) -> Optional[Mfn]:
        """First-fit allocate ``count`` contiguous frames, optionally aligned.

        Returns the first frame number, or None if no extent fits.
        """
        for i, (start, length) in enumerate(zip(self._starts, self._lengths)):
            aligned = -(-start // align) * align
            waste = aligned - start
            if length - waste < count:
                continue
            # Split the extent: [start, aligned) stays free, the allocation
            # is [aligned, aligned+count), the tail stays free.
            tail_start = aligned + count
            tail_len = start + length - tail_start
            del self._starts[i]
            del self._lengths[i]
            if tail_len > 0:
                self._starts.insert(i, tail_start)
                self._lengths.insert(i, tail_len)
            if waste > 0:
                self._starts.insert(i, start)
                self._lengths.insert(i, waste)
            self.free_frames -= count
            return aligned
        return None

    def free(self, start: Mfn, count: int) -> None:
        """Return ``count`` frames starting at ``start``, coalescing."""
        i = bisect.bisect_left(self._starts, start)
        # Guard against double frees / overlaps.
        if i > 0 and self._starts[i - 1] + self._lengths[i - 1] > start:
            raise OutOfMemoryError(f"double free of frame {start:#x}")
        if i < len(self._starts) and start + count > self._starts[i]:
            raise OutOfMemoryError(f"double free of frame {start:#x}")
        self._starts.insert(i, start)
        self._lengths.insert(i, count)
        self.free_frames += count
        # Coalesce with successor, then predecessor.
        if i + 1 < len(self._starts) and start + count == self._starts[i + 1]:
            self._lengths[i] += self._lengths[i + 1]
            del self._starts[i + 1]
            del self._lengths[i + 1]
        if i > 0 and self._starts[i - 1] + self._lengths[i - 1] == start:
            self._lengths[i - 1] += self._lengths[i]
            del self._starts[i]
            del self._lengths[i]

    def alloc_singles(self, count: int) -> Optional["np.ndarray"]:
        """Allocate ``count`` single frames, as repeated ``alloc(1)`` would.

        Repeated one-frame first-fit allocations drain the sorted extent
        list front to back, so the result is simply the first ``count``
        free frames in ascending order. Returns None (allocating nothing)
        if fewer than ``count`` frames are free.
        """
        if count > self.free_frames:
            return None
        out = np.empty(count, dtype=np.int64)
        filled = 0
        consumed = 0
        while filled < count:
            start = self._starts[consumed]
            length = self._lengths[consumed]
            take = min(length, count - filled)
            out[filled : filled + take] = np.arange(
                start, start + take, dtype=np.int64
            )
            filled += take
            if take == length:
                consumed += 1
            else:
                self._starts[consumed] = start + take
                self._lengths[consumed] = length - take
        del self._starts[:consumed]
        del self._lengths[:consumed]
        self.free_frames -= count
        return out

    def largest_extent(self) -> int:
        """Length of the largest free extent (0 when exhausted)."""
        return max(self._lengths, default=0)


@dataclass
class NodeMemoryStats:
    """Snapshot of one node's frame usage."""

    node: NodeId
    total_frames: int
    free_frames: int
    largest_extent: int


class MachineMemory:
    """All machine frames, partitioned into per-node NUMA regions.

    Args:
        num_nodes: NUMA node count.
        frames_per_node: simulated frames in each node's bank.
        controller_gib_s: per-node memory controller throughput.
    """

    def __init__(self, num_nodes: int, frames_per_node: int, controller_gib_s: float):
        if frames_per_node < 1:
            raise TopologyError("frames_per_node must be positive")
        self.num_nodes = num_nodes
        self.frames_per_node = frames_per_node
        self._extents: Dict[NodeId, _ExtentList] = {
            n: _ExtentList(n * frames_per_node, frames_per_node)
            for n in range(num_nodes)
        }
        self.controllers: Tuple[MemoryController, ...] = tuple(
            MemoryController(n, controller_gib_s) for n in range(num_nodes)
        )
        #: Optional :class:`repro.lint.sanitizer.P2MSanitizer` tracking
        #: frame ownership; attached by the hypervisor when sanitizing.
        self.sanitizer: Optional[object] = None

    # ------------------------------------------------------------------
    # Address geometry

    @property
    def total_frames(self) -> int:
        return self.num_nodes * self.frames_per_node

    def node_of_frame(self, mfn: Mfn) -> NodeId:
        """NUMA node owning machine frame ``mfn`` (the static hardware map)."""
        if not 0 <= mfn < self.total_frames:
            raise TopologyError(f"mfn {mfn:#x} out of range")
        return mfn // self.frames_per_node

    def nodes_of_frames(self, mfns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`node_of_frame` over a whole mfn array."""
        mfns = np.asarray(mfns, dtype=np.int64)
        if mfns.size:
            bad = (mfns < 0) | (mfns >= self.total_frames)
            if bad.any():
                raise TopologyError(
                    f"mfn {int(mfns[bad][0]):#x} out of range"
                )
        return mfns // self.frames_per_node

    # ------------------------------------------------------------------
    # Allocation

    def alloc_frames(self, node: NodeId, count: int = 1, align: int = 1) -> Optional[Mfn]:
        """Allocate ``count`` contiguous frames on ``node``.

        Returns the first mfn, or None if the node cannot satisfy the
        request (the caller decides on fallback, like Xen's heap).
        """
        self._check_node(node)
        if count < 1:
            raise OutOfMemoryError("allocation count must be positive")
        mfn = self._extents[node].alloc(count, align)
        if mfn is not None and self.sanitizer is not None:
            self.sanitizer.frames_allocated(mfn, count)
        return mfn

    def free_frames(self, mfn: Mfn, count: int = 1) -> None:
        """Free ``count`` contiguous frames starting at ``mfn``.

        The run must not cross a node boundary (callers free per-node runs).
        """
        node = self.node_of_frame(mfn)
        if self.node_of_frame(mfn + count - 1) != node:
            raise OutOfMemoryError("free range crosses a NUMA node boundary")
        if self.sanitizer is not None:
            self.sanitizer.frames_freed(mfn, count)
        self._extents[node].free(mfn, count)

    def alloc_singles(self, node: NodeId, count: int) -> Optional[np.ndarray]:
        """Allocate ``count`` single frames on ``node`` in one call.

        State-identical to ``count`` successive ``alloc_frames(node, 1)``
        calls (single-frame first-fit drains extents front to back);
        returns the ascending mfn array, or None — allocating nothing —
        when the node has fewer than ``count`` free frames.
        """
        self._check_node(node)
        if count < 1:
            raise OutOfMemoryError("allocation count must be positive")
        mfns = self._extents[node].alloc_singles(count)
        if mfns is not None and self.sanitizer is not None:
            self.sanitizer.frames_allocated_many(mfns.tolist())
        return mfns

    def free_frames_many(self, mfns: Union[Sequence[int], np.ndarray]) -> None:
        """Free a set of single frames in one call.

        The final extent state after a set of frees is order-independent
        (extents are kept sorted and coalesced), so this sorts the frames,
        splits them into per-node contiguous runs and frees each run —
        state-identical to freeing them one by one, including raising
        the same double-free error on duplicates. The sanitizer checks
        the frames in input order, before the sort.
        """
        mfns = np.asarray(mfns, dtype=np.int64)
        if mfns.size == 0:
            return
        low, high = int(mfns.min()), int(mfns.max())
        if low < 0 or high >= self.total_frames:
            raise TopologyError(f"mfn {low if low < 0 else high:#x} out of range")
        if self.sanitizer is not None:
            self.sanitizer.frames_freed_many(mfns.tolist())
        mfns = np.sort(mfns)
        nodes = mfns // self.frames_per_node
        breaks = np.nonzero((np.diff(mfns) != 1) | (np.diff(nodes) != 0))[0] + 1
        starts = np.concatenate(([0], breaks))
        ends = np.concatenate((breaks, [mfns.size]))
        for run_start, run_end in zip(starts.tolist(), ends.tolist()):
            first = int(mfns[run_start])
            self._extents[first // self.frames_per_node].free(
                first, run_end - run_start
            )

    def free_frames_on(self, node: NodeId) -> int:
        """Number of free frames on ``node``."""
        self._check_node(node)
        return self._extents[node].free_frames

    def stats(self, node: NodeId) -> NodeMemoryStats:
        """Usage snapshot for ``node``."""
        self._check_node(node)
        ext = self._extents[node]
        return NodeMemoryStats(
            node=node,
            total_frames=self.frames_per_node,
            free_frames=ext.free_frames,
            largest_extent=ext.largest_extent(),
        )

    def reset_controllers(self) -> None:
        """Clear per-epoch controller accounting."""
        for controller in self.controllers:
            controller.reset()

    def _check_node(self, node: NodeId) -> None:
        if not 0 <= node < self.num_nodes:
            raise TopologyError(f"node {node} out of range")
