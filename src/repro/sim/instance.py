"""One running application instance inside the simulation.

An :class:`AppRun` owns the runtime state of one application: its threads,
its segments with their placement views, its work counters and its churn
state. The environment supplies a *context* (duck-typed, see
:class:`RunContextProtocol`) that performs the actual memory mechanics —
touching a page goes through the real guest fault path and, in Xen mode,
through the real hypervisor page-fault path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SimConfig
from repro.core.policies.base import EpochObservation
from repro.hardware.counters import HotPageSample, HotPageSamples
from repro.sim.calibration import OpModel
from repro.sim.placement import SegmentPlacement
from repro.sim.results import EpochRecord
from repro.workloads.app import AppSpec, SegmentDef

#: Fraction of a shared segment's pages forming the "hot subset".
HOT_SUBSET_FRACTION = 0.02
#: Minimum hot-subset size (pages). At coarse page scales a tiny subset
#: cannot round-robin evenly over 8 nodes, which would fake imbalance
#: that fine-grained 4 KiB placement does not have.
HOT_SUBSET_MIN_PAGES = 16
#: Fraction of the shared segment's (non-dominant-page) accesses that hit
#: the hot subset — what Carrefour can rebalance quickly.
HOT_SUBSET_WEIGHT = 0.6
#: Pages sampled per epoch for the dynamic policy.
SAMPLES_SHARED = 768
SAMPLES_PRIVATE_PER_THREAD = 4
#: Page-placement churn events actually executed per epoch (the full rate
#: is accounted analytically; this keeps the mechanics exercised).
CHURN_MECHANICAL_SAMPLE = 48


@dataclass
class ThreadCtx:
    """Engine-side view of one application thread."""

    tid: int
    node: int
    cpu_share: float
    work_done: float = 0.0
    finish_time: Optional[float] = None

    @property
    def finished(self) -> bool:
        return self.finish_time is not None


class RuntimeSegment:
    """A workload segment resolved onto pages with a placement view."""

    def __init__(self, definition: SegmentDef, num_nodes: int):
        self.definition = definition
        self.placement = SegmentPlacement(definition.num_pages, num_nodes)
        #: Backing key per page (gpfn in Xen mode, vpfn in Linux mode);
        #: -1 until touched.
        self.keys = np.full(definition.num_pages, -1, dtype=np.int64)
        self.page_weights: Optional[np.ndarray] = None
        if definition.owner_tid is None:
            self.page_weights = self._shared_weights(
                definition.num_pages, definition.spec.hot_weight
            )

    @staticmethod
    def _shared_weights(num_pages: int, hot_weight: float) -> np.ndarray:
        """Access weight per page of a shared segment.

        Page 0 is the dominant hot page (``hot_weight``); the next ~2% of
        pages form a hot subset carrying half of the rest; the tail is
        uniform. This mirrors the skewed page popularity that makes
        Carrefour effective: rebalancing a small hot set moves a large
        share of the traffic.
        """
        w = np.zeros(num_pages, dtype=np.float64)
        if num_pages == 1:
            w[0] = 1.0
            return w
        remainder = 1.0 - hot_weight
        subset = max(
            HOT_SUBSET_MIN_PAGES, int(round(num_pages * HOT_SUBSET_FRACTION))
        )
        subset = min(subset, num_pages - 1)
        w[0] = hot_weight
        w[1 : 1 + subset] = remainder * HOT_SUBSET_WEIGHT / subset
        tail = num_pages - 1 - subset
        if tail > 0:
            w[1 + subset :] = remainder * (1.0 - HOT_SUBSET_WEIGHT) / tail
        else:
            w[1 : 1 + subset] += remainder * (1.0 - HOT_SUBSET_WEIGHT) / subset
        return w

    @property
    def num_pages(self) -> int:
        return self.definition.num_pages

    @property
    def owner_tid(self) -> Optional[int]:
        return self.definition.owner_tid

    def distribution(self, num_nodes: int) -> np.ndarray:
        """Access probability per destination node."""
        if self.page_weights is None:
            counts = self.placement.counts.astype(np.float64)
            total = counts.sum()
            if total == 0:
                return np.zeros(num_nodes)
            return counts / total
        mapped = self.placement.nodes >= 0
        if not mapped.any():
            return np.zeros(num_nodes)
        weights = self.page_weights * mapped
        total = weights.sum()
        if total == 0:
            return np.zeros(num_nodes)
        dist = np.bincount(
            self.placement.nodes[mapped],
            weights=self.page_weights[mapped],
            minlength=num_nodes,
        )
        return dist / total


class AppRun:
    """Runtime state of one application instance.

    Args:
        app: the application model.
        op_model: calibrated per-operation timing.
        segments: resolved runtime segments.
        threads: engine-side thread contexts.
        context: environment adapter doing the memory mechanics.
        config: simulation knobs.
        rng: per-run deterministic randomness.
    """

    def __init__(
        self,
        app: AppSpec,
        op_model: OpModel,
        segments: List[RuntimeSegment],
        threads: List[ThreadCtx],
        context,
        config: SimConfig,
        rng: np.random.Generator,
    ):
        self.app = app
        self.op_model = op_model
        self.segments = segments
        self.threads = threads
        self.context = context
        self.config = config
        self.rng = rng
        self.shared_segments = [s for s in segments if s.owner_tid is None]
        self.private_by_tid: Dict[int, RuntimeSegment] = {
            s.owner_tid: s for s in segments if s.owner_tid is not None
        }
        self.records: List[EpochRecord] = []
        self.pending_policy_cost = 0.0
        self.init_seconds = 0.0
        self.completion_seconds: Optional[float] = None
        self._churn_cursor = 0
        self._dest_cache: Optional[
            Tuple[tuple, Tuple[np.ndarray, np.ndarray, np.ndarray]]
        ] = None
        # One counter watched by every segment placement: the dest-cache
        # key reads a single integer per epoch instead of scanning each
        # segment's version (placements are never swapped out of a
        # RuntimeSegment, so wiring the cell once here is enough).
        self._placement_epoch = [0]
        for s in segments:
            s.placement.version_cell = self._placement_epoch

    # ------------------------------------------------------------------
    # Lifecycle

    @property
    def finished(self) -> bool:
        # Checked per run per epoch by both engine drivers; the direct
        # finish_time test skips a property call per thread.
        return all(t.finish_time is not None for t in self.threads)

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def initialize(self) -> None:
        """The initialisation phase: first-touch every page.

        Master-initialised segments are touched by thread 0 (the
        master-slave pattern of section 3.1); owner segments by their
        owner. This is where first-touch placement gets decided — through
        the real fault paths.
        """
        master = self.threads[0]
        for segment in self.segments:
            toucher = master
            if (
                segment.definition.spec.init == "owner"
                and segment.owner_tid is not None
            ):
                toucher = self.threads[segment.owner_tid]
            if self.context.touch_segment(self, segment, toucher):
                continue
            for idx in range(segment.num_pages):
                self.context.touch_page(self, segment, idx, toucher)
        self.init_seconds = self.context.take_init_seconds()

    # ------------------------------------------------------------------
    # Per-epoch access model

    def destination_matrix(self, num_nodes: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-thread destination distributions.

        The result is cached and recomputed only when an input actually
        changed: a segment placement mutated (churn, policy migration,
        release) or a thread moved node or finished. Steady-state epochs —
        no churn, static policy — reuse the cached arrays, which are
        frozen (``setflags(write=False)``): a caller mutating the shared
        memo would silently skew every later epoch's solver input.

        Returns:
            (D, src_nodes, active): D[t] is thread t's access distribution
            over destination nodes, src_nodes[t] its node, active[t]
            whether it still runs.
        """
        # The placement epoch only grows, and threads never un-finish,
        # so the monotone counter/count stand in for the full
        # per-segment and per-thread tuples: any placement or
        # completion change moves them. Thread homes can move either
        # way (vCPU migration) and stay a tuple. This key is rebuilt
        # every epoch — keep it cheap.
        nodes = []
        finished = 0
        for t in self.threads:
            nodes.append(t.node)
            if t.finish_time is not None:
                finished += 1
        key = (
            num_nodes,
            self._placement_epoch[0],
            tuple(nodes),
            finished,
        )
        if self._dest_cache is not None and self._dest_cache[0] == key:
            return self._dest_cache[1]
        share = self.app.master_share
        shared_dist = np.zeros(num_nodes)
        total_shared_weight = sum(
            s.definition.spec.weight for s in self.shared_segments
        )
        for seg in self.shared_segments:
            shared_dist += seg.distribution(num_nodes) * (
                seg.definition.spec.weight / total_shared_weight
                if total_shared_weight
                else 1.0
            )
        T = self.num_threads
        D = np.zeros((T, num_nodes))
        src = np.zeros(T, dtype=np.int64)
        active = np.zeros(T, dtype=bool)
        for t in self.threads:
            src[t.tid] = t.node
            active[t.tid] = not t.finished
            private = self.private_by_tid.get(t.tid)
            pdist = (
                private.distribution(num_nodes)
                if private is not None
                else shared_dist
            )
            D[t.tid] = share * shared_dist + (1.0 - share) * pdist
        D.setflags(write=False)
        src.setflags(write=False)
        active.setflags(write=False)
        self._dest_cache = (key, (D, src, active))
        return D, src, active

    def commit_work(
        self, ops: np.ndarray, epoch_start: float, epoch_seconds: float
    ) -> float:
        """Credit per-thread operations; returns total ops done.

        A thread reaching its target records an interpolated finish time
        within the epoch.
        """
        target = self.op_model.ops_per_thread
        done = 0.0
        # One bulk float64 -> python-float conversion; tolist() yields
        # the exact doubles float(ops[tid]) would.
        ops_list = ops.tolist()
        for t in self.threads:
            if t.finish_time is not None:
                continue
            amount = ops_list[t.tid]
            if amount <= 0:
                continue
            remaining = target - t.work_done
            if amount >= remaining and amount > 0:
                fraction = remaining / amount
                t.work_done = target
                t.finish_time = epoch_start + fraction * epoch_seconds
                done += remaining
            else:
                t.work_done += amount
                done += amount
        return done

    # ------------------------------------------------------------------
    # Churn (Streamflow-style mmap/munmap traffic)

    def churn_step(self) -> None:
        """Execute a mechanical sample of the release/realloc churn.

        The *timing* of the full churn rate is modelled analytically (the
        context's churn factor); here a handful of real release+retouch
        cycles run through the allocator, the event queue and the fault
        path so the mechanics stay honest.
        """
        if self.app.churn_per_thread_s <= 0:
            return
        threads = [t for t in self.threads if not t.finished]
        if not threads:
            return
        for _ in range(CHURN_MECHANICAL_SAMPLE):
            thread = threads[self._churn_cursor % len(threads)]
            self._churn_cursor += 1
            segment = self.private_by_tid.get(thread.tid)
            if segment is None or segment.num_pages < 2:
                continue
            idx = 1 + int(self.rng.integers(segment.num_pages - 1))
            self.context.release_page(self, segment, idx)
            self.context.touch_page(self, segment, idx, thread)

    # ------------------------------------------------------------------
    # Dynamic-policy observation

    def build_observation(
        self,
        access_matrix: np.ndarray,
        controller_rho: np.ndarray,
        max_link_rho: float,
        epoch_seconds: float,
        ops_by_node: np.ndarray,
    ) -> EpochObservation:
        """Assemble what the hardware counters would show for this app.

        ``controller_rho`` and ``max_link_rho`` are the *world-total*
        utilisations — the congestion this run experiences, shared with
        every co-located run — while ``access_matrix`` is this run's own
        traffic. The engine separately archives the run's private link
        *contribution* in its :class:`~repro.sim.results.EpochRecord`.
        """
        hot_pages: Sequence[HotPageSample] = []
        if self.context.policy_is_dynamic:
            hot_pages = self._sample_hot_pages(ops_by_node)
        return EpochObservation(
            epoch_seconds=epoch_seconds,
            access_matrix=access_matrix,
            controller_rho=controller_rho,
            max_link_rho=max_link_rho,
            hot_pages=hot_pages,
        )

    def _sample_hot_pages(self, ops_by_node: np.ndarray) -> HotPageSamples:
        """Per-page samples as IBS would report them, built as columns.

        Shared pages: sources follow the per-node operation counts; the
        hottest pages are sampled deterministically, the uniform tail at
        random. Private pages: the owner is the only source — except
        during a *burst*, when a remote node transiently hammers them
        (the behaviour that misleads Carrefour on "low" applications).

        Samples come out in a fixed order (shared segments, then private
        segments by thread) and the RNG is drawn exactly as a per-sample
        walk would draw it; only the per-sample arithmetic is batched.
        """
        share = self.app.master_share
        total_ops = float(ops_by_node.sum())
        num_nodes = len(ops_by_node)
        # Column pieces, seeded empty so a run with nothing sampled
        # still concatenates to well-shaped columns.
        pages = [np.zeros(0, dtype=np.int64)]
        accesses = [np.zeros((0, num_nodes), dtype=np.int64)]
        write_fraction = [np.zeros(0)]

        # Shared segments: counts = round(page_ops * src_dist), clipped at
        # zero; a row that rounds to nothing charges its whole (at least
        # one) access to the busiest source node.
        total_shared_ops = total_ops * share
        src_dist = ops_by_node / max(total_ops, 1.0)
        busiest = int(np.argmax(src_dist))
        for seg in self.shared_segments:
            count = min(SAMPLES_SHARED, seg.num_pages)
            hot_n = min(count // 2, seg.num_pages)
            indices = np.arange(hot_n, dtype=np.int64)
            if seg.num_pages > hot_n:
                extra = self.rng.integers(
                    hot_n, seg.num_pages, size=count - hot_n
                )
                indices = np.concatenate((indices, extra))
            keys = seg.keys[indices]
            mapped = keys >= 0
            page_ops = total_shared_ops * seg.page_weights[indices[mapped]]
            counts = np.maximum(
                0, np.round(np.outer(page_ops, src_dist))
            ).astype(np.int64)
            empty = counts.sum(axis=1) == 0
            counts[empty, busiest] = np.maximum(
                1, page_ops[empty].astype(np.int64)
            )
            pages.append(keys[mapped])
            accesses.append(counts)
            write_fraction.append(
                np.full(len(counts), float(seg.definition.spec.write_fraction))
            )

        # Private segments: owner-only sources, plus transient bursts.
        burst = self.rng.random() < self.app.burst_noise
        burst_tids = set()
        if burst:
            k = max(1, self.num_threads // 16)
            burst_tids = set(
                int(t) for t in self.rng.choice(self.num_threads, size=k, replace=False)
            )
        private_keys: List[np.ndarray] = []
        sources: List[int] = []
        amounts: List[int] = []
        for t in self.threads:
            if t.finished:
                continue
            seg = self.private_by_tid.get(t.tid)
            if seg is None:
                continue
            per_page_ops = (
                total_ops
                * (1.0 - share)
                / max(1, self.num_threads)
                / seg.num_pages
            )
            source = t.node
            if t.tid in burst_tids:
                source = int(self.rng.integers(num_nodes))
            count = min(SAMPLES_PRIVATE_PER_THREAD, seg.num_pages)
            private_keys.append(
                seg.keys[self.rng.integers(0, seg.num_pages, size=count)]
            )
            sources.append(source)
            amounts.append(max(1, int(per_page_ops)))
        if private_keys:
            per_thread = [len(k) for k in private_keys]
            keys = np.concatenate(private_keys)
            counts = np.zeros((keys.size, num_nodes), dtype=np.int64)
            counts[np.arange(keys.size), np.repeat(sources, per_thread)] = (
                np.repeat(amounts, per_thread)
            )
            mapped = keys >= 0
            pages.append(keys[mapped])
            accesses.append(counts[mapped])
            write_fraction.append(np.full(int(mapped.sum()), 0.5))

        page_column = np.concatenate(pages)
        return HotPageSamples(
            pages=page_column,
            domains=np.full(
                page_column.size, self.context.domain_id, dtype=np.int64
            ),
            accesses=np.concatenate(accesses),
            write_fraction=np.concatenate(write_fraction),
        )
