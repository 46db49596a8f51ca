"""Batched page alloc/release event queues (paper sections 4.2.3-4.2.4).

First-touch needs to know when the guest releases a physical page so the
hypervisor can invalidate its p2m entry. Calling the hypervisor on *every*
release is ruinous (an empty hypercall per release divides wrmem's
performance by 3), so the guest batches events:

* each entry is a pair ``(op, page)`` — allocation or release of a
  physical page;
* entries accumulate in a queue protected by a lock; when the queue fills,
  the guest flushes it with one hypercall **while still holding the lock**,
  so no other core can reallocate a queued free page mid-flush;
* a single global queue bottlenecks on many cores, so the final design
  partitions it into independent queues selected by the two least
  significant bits of the page frame number;
* on receipt, the hypervisor replays the queue from the newest entry and
  only honours the *most recent* operation per page: a newest-release means
  the page is truly free (invalidate it); a newest-allocation means the
  page may already be reused (leave it where it is — copying would cost
  more than it saves).

Each partition is a pair of preallocated ``op``/``gpfn`` arrays with a
fill counter (so a flush hands the hypervisor a :class:`PageEventBatch`
of arrays, not a list of objects), and :meth:`PartitionedPageQueue.record_many`
enqueues a whole gpfn array with the same per-flush cost accounting —
flushes fire in the order their triggering event would have arrived — as
the equivalent :meth:`PartitionedPageQueue.record` loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.errors import HypercallError


class PageOp(enum.Enum):
    """Operation recorded in a queue entry."""

    ALLOC = "alloc"
    RELEASE = "release"


@dataclass(frozen=True)
class PageEvent:
    """One (op, page) pair, oldest-first in a flushed queue."""

    op: PageOp
    gpfn: int


#: Array op codes (the wire format of a flushed batch).
OP_ALLOC = 0
OP_RELEASE = 1
_CODE_OF = {PageOp.ALLOC: OP_ALLOC, PageOp.RELEASE: OP_RELEASE}
_OP_OF = (PageOp.ALLOC, PageOp.RELEASE)


class PageEventBatch:
    """One flushed queue as parallel ``ops``/``gpfns`` arrays.

    Sequence-compatible with the list of :class:`PageEvent` the queue used
    to flush (iteration and indexing materialise events on demand), while
    the replay path reads the arrays directly.
    """

    __slots__ = ("ops", "gpfns")

    def __init__(self, ops: np.ndarray, gpfns: np.ndarray):
        self.ops = np.asarray(ops, dtype=np.uint8)
        self.gpfns = np.asarray(gpfns, dtype=np.int64)
        if self.ops.shape != self.gpfns.shape:
            raise HypercallError("batch needs matching op/gpfn arrays")

    def __len__(self) -> int:
        return int(self.ops.size)

    def __iter__(self) -> Iterator[PageEvent]:
        for code, gpfn in zip(self.ops.tolist(), self.gpfns.tolist()):
            yield PageEvent(_OP_OF[code], gpfn)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [
                PageEvent(_OP_OF[c], g)
                for c, g in zip(
                    self.ops[index].tolist(), self.gpfns[index].tolist()
                )
            ]
        return PageEvent(_OP_OF[int(self.ops[index])], int(self.gpfns[index]))

    @classmethod
    def from_events(cls, events: Sequence[PageEvent]) -> "PageEventBatch":
        ops = np.fromiter(
            (_CODE_OF[e.op] for e in events), dtype=np.uint8, count=len(events)
        )
        gpfns = np.fromiter(
            (e.gpfn for e in events), dtype=np.int64, count=len(events)
        )
        return cls(ops, gpfns)


#: Flush callback: receives the (oldest-first) events, returns nothing.
FlushFn = Callable[[Sequence[PageEvent]], None]
#: Cost callback: seconds one flush of n events takes (lock-hold time).
FlushCostFn = Callable[[int], float]


class QueueStats:
    """Accounting for one queue family (used by the batching experiments).

    Attribute-compatible with the dataclass this replaced; each field is
    a view over a metric cell registered with the active observability
    session (:mod:`repro.obs`), so the batching experiments keep reading
    the same numbers while an enabled session collects them.
    """

    __slots__ = ("_events", "_flushes", "_flushed", "_locks", "_flush_hold", "_append_hold")

    def __init__(self) -> None:
        reg = obs.registry()
        self._events = reg.counter("queue.events")
        self._flushes = reg.counter("queue.flushes")
        self._flushed = reg.counter("queue.flushed_events")
        self._locks = reg.counter("queue.lock_acquisitions")
        #: Seconds of lock hold time spent inside flush hypercalls.
        self._flush_hold = reg.counter("queue.flush_hold_seconds", value=0.0)
        #: Seconds spent appending entries (lock held, no hypercall).
        self._append_hold = reg.counter("queue.append_hold_seconds", value=0.0)

    @property
    def events(self) -> int:
        return self._events.value

    @events.setter
    def events(self, value: int) -> None:
        self._events.value = value

    @property
    def flushes(self) -> int:
        return self._flushes.value

    @flushes.setter
    def flushes(self, value: int) -> None:
        self._flushes.value = value

    @property
    def flushed_events(self) -> int:
        return self._flushed.value

    @flushed_events.setter
    def flushed_events(self, value: int) -> None:
        self._flushed.value = value

    @property
    def lock_acquisitions(self) -> int:
        return self._locks.value

    @lock_acquisitions.setter
    def lock_acquisitions(self, value: int) -> None:
        self._locks.value = value

    @property
    def flush_hold_seconds(self) -> float:
        return self._flush_hold.value

    @flush_hold_seconds.setter
    def flush_hold_seconds(self, value: float) -> None:
        self._flush_hold.value = value

    @property
    def append_hold_seconds(self) -> float:
        return self._append_hold.value

    @append_hold_seconds.setter
    def append_hold_seconds(self, value: float) -> None:
        self._append_hold.value = value

    @property
    def events_per_flush(self) -> float:
        return self.flushed_events / self.flushes if self.flushes else 0.0


def _accumulate(start: float, cost: float, count: int) -> float:
    """``count`` sequential ``start += cost`` adds, as one cumsum.

    ``np.cumsum`` is sequential left-to-right, so the final element is
    bit-identical to the scalar accumulation loop.
    """
    if count == 0:
        return start
    steps = np.empty(count + 1, dtype=np.float64)
    steps[0] = start
    steps[1:] = cost
    return float(np.cumsum(steps)[-1])


class PartitionedPageQueue:
    """The guest-side event queue, partitioned by the 2 low PFN bits.

    Args:
        flush_fn: delivers a full queue to the hypervisor (the hypercall).
        flush_cost_fn: duration of a flush of n events (lock-hold time).
        batch_size: entries per partition before a flush triggers.
        num_partitions: independent queues; the paper uses 4 (two LSBs of
            the page frame number). ``num_partitions=1`` is the single
            global queue of the intermediate design, kept for the ablation.
        append_cost_seconds: lock-held time for one enqueue.
    """

    def __init__(
        self,
        flush_fn: FlushFn,
        flush_cost_fn: Optional[FlushCostFn] = None,
        batch_size: int = 64,
        num_partitions: int = 4,
        append_cost_seconds: float = 20e-9,
    ):
        if batch_size < 1:
            raise HypercallError("batch_size must be at least 1")
        if num_partitions < 1:
            raise HypercallError("need at least one partition")
        self.flush_fn = flush_fn
        self.flush_cost_fn = flush_cost_fn or (lambda n: 0.0)
        self.batch_size = batch_size
        self.num_partitions = num_partitions
        self.append_cost_seconds = append_cost_seconds
        self._ops = [
            np.empty(batch_size, dtype=np.uint8) for _ in range(num_partitions)
        ]
        self._gpfns = [
            np.empty(batch_size, dtype=np.int64) for _ in range(num_partitions)
        ]
        self._fill = [0] * num_partitions
        self._pending = 0
        self.stats = QueueStats()

    def partition_of(self, gpfn: int) -> int:
        """Queue index for a page: the two least significant PFN bits."""
        return gpfn % self.num_partitions

    def record(self, op: PageOp, gpfn: int) -> None:
        """Append one event, flushing the partition if it fills.

        The flush happens while the partition lock is held (so a queued
        free page cannot be reallocated concurrently); the lock-hold time
        is accounted in :attr:`stats`.
        """
        idx = self.partition_of(gpfn)
        fill = self._fill[idx]
        self._ops[idx][fill] = _CODE_OF[op]
        self._gpfns[idx][fill] = gpfn
        self._fill[idx] = fill + 1
        self._pending += 1
        self.stats.events += 1
        self.stats.lock_acquisitions += 1
        self.stats.append_hold_seconds += self.append_cost_seconds
        if fill + 1 >= self.batch_size:
            self._flush(idx)

    def record_alloc(self, gpfn: int) -> None:
        """Shorthand for an allocation event."""
        self.record(PageOp.ALLOC, gpfn)

    def record_release(self, gpfn: int) -> None:
        """Shorthand for a release event."""
        self.record(PageOp.RELEASE, gpfn)

    def record_many(self, op: PageOp, gpfns: Union[Sequence[int], np.ndarray]) -> None:
        """Enqueue one op for a whole gpfn array.

        Equivalent — same flushes, in the same order, with the same stats
        — to calling :meth:`record` per gpfn; the flush of each partition
        fires at the position of the event that filled it.
        """
        gpfns = np.asarray(gpfns, dtype=np.int64)
        count = int(gpfns.size)
        if count == 0:
            return
        code = _CODE_OF[op]
        size = self.batch_size
        parts = gpfns % self.num_partitions
        order = np.argsort(parts, kind="stable")
        counts = np.bincount(parts, minlength=self.num_partitions)
        # All appends are accounted up front: append/flush hold times live
        # in separate accumulators, so the scalar interleaving does not
        # change either float result.
        self.stats.events += count
        self.stats.lock_acquisitions += count
        self.stats.append_hold_seconds = _accumulate(
            self.stats.append_hold_seconds, self.append_cost_seconds, count
        )
        self._pending += count
        # Per partition: its (ascending) positions in `gpfns`, and the
        # [start, end) chunks of that segment each flush covers. A flush
        # fires at the position of the event that filled the partition,
        # so flushes across partitions are emitted sorted by trigger.
        segments: List[np.ndarray] = []
        flushed_through = [0] * self.num_partitions
        flushes: List[Tuple[int, int, int, int]] = []
        offset = 0
        for idx in range(self.num_partitions):
            cnt = int(counts[idx])
            segments.append(order[offset : offset + cnt])
            offset += cnt
            start = 0
            trigger = (size - self._fill[idx]) - 1
            while trigger < cnt:
                flushes.append((int(segments[idx][trigger]), idx, start, trigger + 1))
                start = trigger + 1
                trigger += size
            flushed_through[idx] = start
        for _, idx, start, end in sorted(flushes):
            chunk = gpfns[segments[idx][start:end]]
            fill = self._fill[idx]
            ops = np.full(fill + chunk.size, code, dtype=np.uint8)
            out = np.empty(fill + chunk.size, dtype=np.int64)
            if fill:
                ops[:fill] = self._ops[idx][:fill]
                out[:fill] = self._gpfns[idx][:fill]
                self._fill[idx] = 0
            out[fill:] = chunk
            self._emit(PageEventBatch(ops, out))
        # Whatever did not trigger a flush stays buffered.
        for idx in range(self.num_partitions):
            rest = segments[idx][flushed_through[idx] :]
            if rest.size == 0:
                continue
            fill = self._fill[idx]
            self._ops[idx][fill : fill + rest.size] = code
            self._gpfns[idx][fill : fill + rest.size] = gpfns[rest]
            self._fill[idx] = fill + int(rest.size)

    def flush_all(self) -> None:
        """Force-flush every partition (e.g. before a policy switch)."""
        for idx in range(self.num_partitions):
            if self._fill[idx]:
                self._flush(idx)

    def pending(self) -> int:
        """Events recorded but not yet flushed (maintained, not scanned)."""
        return self._pending

    def _flush(self, idx: int) -> None:
        fill = self._fill[idx]
        events = PageEventBatch(
            self._ops[idx][:fill].copy(), self._gpfns[idx][:fill].copy()
        )
        self._fill[idx] = 0
        self._emit(events)

    def _emit(self, events: PageEventBatch) -> None:
        self._pending -= len(events)
        self.stats.flushes += 1
        self.stats.flushed_events += len(events)
        self.stats.flush_hold_seconds += self.flush_cost_fn(len(events))
        tr = obs.tracer()
        if tr.enabled:
            tr.instant("queue.flush", cat="guest", events=len(events))
        self.flush_fn(events)


def newest_wins(events: PageEventBatch) -> Tuple[np.ndarray, int]:
    """Newest-wins resolution of one batch (paper section 4.2.4).

    Returns ``(release_gpfns, skipped)``: the pages whose most recent
    event is a RELEASE — in the order a newest-first scalar walk would
    visit them — and the count whose most recent event is an ALLOC.
    """
    reversed_gpfns = events.gpfns[::-1]
    reversed_ops = events.ops[::-1]
    _, first_seen = np.unique(reversed_gpfns, return_index=True)
    newest_ops = reversed_ops[first_seen]
    release_positions = np.sort(first_seen[newest_ops == OP_RELEASE])
    skipped = int(np.count_nonzero(newest_ops == OP_ALLOC))
    return reversed_gpfns[release_positions], skipped


def replay_page_events(
    events: Sequence[PageEvent],
    invalidate: Callable[[int], bool],
) -> Tuple[int, int]:
    """Hypervisor-side replay of one flushed queue (paper section 4.2.4).

    Walk from the newest entry backwards, remembering visited pages; only
    the most recent operation per page counts:

    * newest op RELEASE -> the page is free: ``invalidate(gpfn)``;
    * newest op ALLOC -> the page may already be reused by a process:
      leave it on its current node (copying the old content would be too
      costly in the common case).

    Args:
        events: oldest-first event list, as flushed by the guest.
        invalidate: callback invalidating one gpfn (returns False if the
            entry was already invalid).

    Returns:
        (invalidated, skipped_reallocated): pages invalidated, and pages
        whose newest event was an allocation.
    """
    if isinstance(events, PageEventBatch):
        release_gpfns, skipped = newest_wins(events)
        invalidated = 0
        for gpfn in release_gpfns.tolist():
            if invalidate(gpfn):
                invalidated += 1
        return invalidated, skipped
    seen: set = set()
    invalidated = 0
    skipped = 0
    for event in reversed(events):
        if event.gpfn in seen:
            continue
        seen.add(event.gpfn)
        if event.op is PageOp.RELEASE:
            if invalidate(event.gpfn):
                invalidated += 1
        else:
            skipped += 1
    return invalidated, skipped


def lock_service_slowdown(
    per_thread_rate_per_s: float,
    num_threads: int,
    service_seconds: float,
    num_partitions: int = 1,
    rho_cap: float = 0.95,
) -> float:
    """Completion-time slowdown imposed by a lock-protected service point.

    Models the guest-wide effect of the queue lock — or of issuing one
    hypercall per release through a single serialisation point, the
    paper's strawman (section 4.2.3): with every thread producing events
    at ``per_thread_rate_per_s`` and each event holding a lock for
    ``service_seconds``, the offered load per partition is
    ``rho = rate * threads * service / partitions``.

    * At/beyond saturation (``rho >= 1``) the serialisation point caps the
      whole application's throughput: the slowdown is ``rho``. This is
      how an "empty hypercall per release" divides wrmem by ~3 (one
      release per 15 us per thread, 48 threads, ~1 us per hypercall).
    * Below saturation each event stalls its thread for the M/M/1
      effective service time ``service / (1 - rho)``.

    Returns:
        A multiplicative completion-time factor (>= 1).
    """
    if per_thread_rate_per_s <= 0 or service_seconds <= 0 or num_threads < 1:
        return 1.0
    rho = per_thread_rate_per_s * num_threads * service_seconds / num_partitions
    if rho >= 1.0:
        # Saturated: the app can only run as fast as events drain.
        return rho
    effective = service_seconds / (1.0 - min(rho, rho_cap))
    busy_fraction = per_thread_rate_per_s * effective
    if busy_fraction >= 1.0:
        return 1.0 / (1.0 - rho_cap)
    return 1.0 / (1.0 - busy_fraction)
