"""Page -> node placement views kept in sync with the real page tables.

The engine never recomputes placements by walking page tables; instead a
:class:`SegmentPlacement` array per workload segment is updated
incrementally by a :class:`PlacementTracker`, which is installed as the
p2m observer (Xen mode) or wired to the Linux NUMA mode's hooks (native
mode). The p2m / Linux page table stays authoritative — unit tests check
the views never drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ReproError


class SegmentPlacement:
    """Node placement of one segment's pages.

    Attributes:
        nodes: per-page node id (-1 = currently unmapped).
        counts: pages per node, maintained incrementally.
    """

    def __init__(self, num_pages: int, num_nodes: int):
        if num_pages < 1:
            raise ReproError("segment needs at least one page")
        self.num_pages = num_pages
        self.num_nodes = num_nodes
        self.nodes = np.full(num_pages, -1, dtype=np.int32)
        self.counts = np.zeros(num_nodes, dtype=np.int64)
        #: Bumped on every mutation — the cache-invalidation token for
        #: views derived from this placement (AppRun.destination_matrix).
        self.version = 0
        #: Optional one-slot counter (a list) shared with the owning
        #: run and bumped alongside ``version``: the run's cache key
        #: reads one integer instead of scanning every segment's
        #: version each epoch.
        self.version_cell: Optional[list] = None

    def place(self, idx: int, node: int) -> None:
        """Record that page ``idx`` now lives on ``node``."""
        old = self.nodes[idx]
        if old >= 0:
            self.counts[old] -= 1
        self.nodes[idx] = node
        self.counts[node] += 1
        self.version += 1
        if self.version_cell is not None:
            self.version_cell[0] += 1

    def release(self, idx: int) -> None:
        """Record that page ``idx`` lost its backing frame."""
        old = self.nodes[idx]
        if old >= 0:
            self.counts[old] -= 1
            self.nodes[idx] = -1
            self.version += 1
            if self.version_cell is not None:
                self.version_cell[0] += 1

    def place_many(self, idxs: np.ndarray, nodes: np.ndarray) -> None:
        """Batch :meth:`place`: one array write, same counts and version.

        ``idxs`` must be duplicate-free (batch callers place whole
        segments or whole flush batches, which are unique by
        construction); the version advances by ``len(idxs)`` exactly as
        the per-page loop would.
        """
        idxs = np.asarray(idxs, dtype=np.int64)
        if idxs.size == 0:
            return
        nodes = np.asarray(nodes, dtype=np.int64)
        old = self.nodes[idxs]
        mapped = old[old >= 0]
        if mapped.size:
            self.counts -= np.bincount(mapped, minlength=self.num_nodes)
        self.nodes[idxs] = nodes
        self.counts += np.bincount(nodes, minlength=self.num_nodes)
        self.version += int(idxs.size)
        if self.version_cell is not None:
            self.version_cell[0] += int(idxs.size)

    def release_many(self, idxs: np.ndarray) -> None:
        """Batch :meth:`release` over duplicate-free ``idxs``.

        Like the scalar form, already-unmapped pages are skipped and do
        not advance the version.
        """
        idxs = np.asarray(idxs, dtype=np.int64)
        if idxs.size == 0:
            return
        old = self.nodes[idxs]
        hit = old >= 0
        released = int(np.count_nonzero(hit))
        if not released:
            return
        self.counts -= np.bincount(old[hit], minlength=self.num_nodes)
        self.nodes[idxs[hit]] = -1
        self.version += released
        if self.version_cell is not None:
            self.version_cell[0] += released

    @property
    def mapped_pages(self) -> int:
        return int(self.counts.sum())

    def distribution(self, hot_weight: float = 0.0) -> np.ndarray:
        """Access probability per destination node for this segment.

        Page 0 is the segment's hot page carrying ``hot_weight`` of the
        accesses; the rest are uniform over mapped pages.
        """
        mapped = self.mapped_pages
        dist = np.zeros(self.num_nodes, dtype=np.float64)
        if mapped == 0:
            return dist
        uniform = self.counts.astype(np.float64) / mapped
        if hot_weight <= 0.0:
            return uniform
        hot_node = self.nodes[0]
        cold = uniform * (1.0 - hot_weight)
        if hot_node >= 0:
            cold[hot_node] += hot_weight
        else:
            # Hot page unmapped (it will fault on first access): spread
            # its weight like the cold pages until it lands somewhere.
            cold = uniform
        return cold


@dataclass
class PlacementTracker:
    """Routes page-table change notifications into segment placements.

    Registered as a :class:`~repro.hypervisor.p2m.P2MTable` observer in
    Xen mode (keys are gpfns) or fed by the Linux NUMA mode hooks in
    native mode (keys are vpfns).

    Pages register either one by one (:meth:`track`, a dict entry) or as
    whole consecutively-keyed ranges (:meth:`track_range`, the batch init
    path) — a range covers a segment without materialising one dict entry
    per page, and the batch observer hooks resolve against ranges with
    array masks instead of per-key lookups.

    Args:
        node_of_frame: maps a machine frame to its NUMA node.
        nodes_of_frames: optional vectorized form over an mfn array.
    """

    node_of_frame: object  # Callable[[int], int]
    nodes_of_frames: Optional[object] = None  # Callable[[ndarray], ndarray]
    _pages: Dict[int, Tuple[SegmentPlacement, int]] = field(default_factory=dict)
    #: (start_key, count, placement, idx0) per registered range.
    _ranges: list = field(default_factory=list)
    #: Keys untracked out of a range (range membership is implicit, so a
    #: removal needs an explicit tombstone).
    _dead: set = field(default_factory=set)
    #: Last range a scalar lookup resolved through — sequential touches
    #: hit the same segment, making scalar lookups O(1) despite ranges.
    _last_range: Optional[tuple] = None

    def track(self, key: int, placement: SegmentPlacement, idx: int) -> None:
        """Start tracking page ``key`` as ``placement[idx]``."""
        self._pages[key] = (placement, idx)
        if self._dead:
            self._dead.discard(key)

    def track_range(
        self, start_key: int, count: int, placement: SegmentPlacement, idx0: int = 0
    ) -> None:
        """Track ``count`` consecutive keys as ``placement[idx0:idx0+count]``.

        Equivalent to ``count`` :meth:`track` calls for
        ``start_key + i -> placement[idx0 + i]``, registered in O(1).
        """
        self._ranges.append((int(start_key), int(count), placement, int(idx0)))

    def untrack(self, key: int) -> None:
        """Stop tracking ``key`` (released or torn down)."""
        self._pages.pop(key, None)
        if self._ranges:
            self._dead.add(key)

    def tracked(self, key: int) -> Optional[Tuple[SegmentPlacement, int]]:
        hit = self._pages.get(key)
        if hit is not None:
            return hit
        if key in self._dead:
            return None
        cached = self._last_range
        if cached is not None and cached[0] <= key < cached[0] + cached[1]:
            return (cached[2], cached[3] + (key - cached[0]))
        for entry in self._ranges:
            start, count, placement, idx0 = entry
            if start <= key < start + count:
                self._last_range = entry
                return (placement, idx0 + (key - start))
        return None

    def _frame_nodes(self, mfns: np.ndarray) -> np.ndarray:
        if self.nodes_of_frames is not None:
            return self.nodes_of_frames(mfns)
        return np.fromiter(
            (self.node_of_frame(int(m)) for m in mfns),
            dtype=np.int64,
            count=len(mfns),
        )

    # ------------------------------------------------------------------
    # P2M observer protocol

    def entry_set(self, gpfn: int, mfn: int) -> None:
        """A page gained (or changed) its backing frame."""
        hit = self.tracked(gpfn)
        if hit is None:
            return
        placement, idx = hit
        placement.place(idx, self.node_of_frame(mfn))

    def entry_invalidated(self, gpfn: int) -> None:
        """A page lost its backing frame."""
        hit = self.tracked(gpfn)
        if hit is None:
            return
        placement, idx = hit
        placement.release(idx)

    def entries_set(self, gpfns: np.ndarray, mfns: np.ndarray) -> None:
        """Batch :meth:`entry_set` (p2m batch-observer protocol).

        Keys resolving into registered ranges are placed with one
        ``place_many`` per range; anything else (dict-tracked keys,
        tombstones, untracked pages) goes through the scalar hook. The
        observable placement state ends exactly as the per-entry loop's —
        batch callers pass duplicate-free gpfns, so apply order cannot
        matter.
        """
        gpfns = np.asarray(gpfns, dtype=np.int64)
        mfns = np.asarray(mfns, dtype=np.int64)
        handled = np.zeros(gpfns.shape, dtype=bool)
        if self._ranges and not self._pages and not self._dead:
            for start, count, placement, idx0 in self._ranges:
                mask = (gpfns >= start) & (gpfns < start + count) & ~handled
                if not mask.any():
                    continue
                keys = gpfns[mask]
                nodes = self._frame_nodes(mfns[mask])
                placement.place_many(idx0 + (keys - start), nodes)
                handled |= mask
        if handled.all():
            return
        for pos in np.nonzero(~handled)[0].tolist():
            self.entry_set(int(gpfns[pos]), int(mfns[pos]))

    def entries_invalidated(self, gpfns: np.ndarray) -> None:
        """Batch :meth:`entry_invalidated` (p2m batch-observer protocol)."""
        gpfns = np.asarray(gpfns, dtype=np.int64)
        handled = np.zeros(gpfns.shape, dtype=bool)
        if self._ranges and not self._pages and not self._dead:
            for start, count, placement, idx0 in self._ranges:
                mask = (gpfns >= start) & (gpfns < start + count) & ~handled
                if not mask.any():
                    continue
                keys = gpfns[mask]
                placement.release_many(idx0 + (keys - start))
                handled |= mask
        if handled.all():
            return
        for pos in np.nonzero(~handled)[0].tolist():
            self.entry_invalidated(int(gpfns[pos]))

    # ------------------------------------------------------------------
    # Linux-mode hook (node known directly, no frame lookup)

    def page_placed(self, key: int, node: int) -> None:
        hit = self.tracked(key)
        if hit is None:
            return
        placement, idx = hit
        placement.place(idx, node)
