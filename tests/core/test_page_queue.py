"""Batched page-event queues: partitioning, flushing, replay, lock model."""

import pytest

from repro.core.page_queue import (
    PageEvent,
    PageOp,
    PartitionedPageQueue,
    lock_service_slowdown,
    replay_page_events,
)
from repro.errors import HypercallError


def make_queue(batch=4, partitions=4, flushes=None):
    flushes = flushes if flushes is not None else []
    return (
        PartitionedPageQueue(
            flush_fn=lambda events: flushes.append(list(events)),
            flush_cost_fn=lambda n: n * 1e-7,
            batch_size=batch,
            num_partitions=partitions,
        ),
        flushes,
    )


class TestPartitioning:
    def test_two_lsb_partitioning(self):
        """Section 4.2.4: partitions keyed by the two low PFN bits."""
        queue, _ = make_queue()
        assert queue.partition_of(0b1100) == 0
        assert queue.partition_of(0b1101) == 1
        assert queue.partition_of(0b1110) == 2
        assert queue.partition_of(0b1111) == 3

    def test_partitions_fill_independently(self):
        queue, flushes = make_queue(batch=2, partitions=4)
        queue.record(PageOp.RELEASE, 0)
        queue.record(PageOp.RELEASE, 1)
        queue.record(PageOp.RELEASE, 2)
        assert not flushes
        queue.record(PageOp.RELEASE, 4)  # second event in partition 0
        assert len(flushes) == 1
        assert [e.gpfn for e in flushes[0]] == [0, 4]


class TestFlushing:
    def test_flush_at_batch_size(self):
        queue, flushes = make_queue(batch=3, partitions=1)
        for g in range(3):
            queue.record(PageOp.ALLOC, g)
        assert len(flushes) == 1
        assert queue.pending() == 0

    def test_flush_all(self):
        queue, flushes = make_queue(batch=100, partitions=4)
        for g in range(10):
            queue.record(PageOp.RELEASE, g)
        queue.flush_all()
        assert queue.pending() == 0
        assert sum(len(b) for b in flushes) == 10

    def test_order_preserved_within_partition(self):
        queue, flushes = make_queue(batch=3, partitions=1)
        queue.record(PageOp.ALLOC, 5)
        queue.record(PageOp.RELEASE, 5)
        queue.record(PageOp.ALLOC, 9)
        events = flushes[0]
        assert [(e.op, e.gpfn) for e in events] == [
            (PageOp.ALLOC, 5),
            (PageOp.RELEASE, 5),
            (PageOp.ALLOC, 9),
        ]

    def test_stats(self):
        queue, _ = make_queue(batch=2, partitions=1)
        queue.record(PageOp.ALLOC, 0)
        queue.record(PageOp.ALLOC, 1)
        stats = queue.stats
        assert stats.events == 2
        assert stats.flushes == 1
        assert stats.flushed_events == 2
        assert stats.flush_hold_seconds == pytest.approx(2e-7)
        assert stats.lock_acquisitions == 2

    def test_bad_parameters_rejected(self):
        with pytest.raises(HypercallError):
            PartitionedPageQueue(lambda e: None, batch_size=0)
        with pytest.raises(HypercallError):
            PartitionedPageQueue(lambda e: None, num_partitions=0)


class TestReplay:
    """The hypervisor-side newest-wins replay (section 4.2.4)."""

    def _replay(self, events):
        invalidated = []
        inv, skip = replay_page_events(
            events, lambda g: invalidated.append(g) or True
        )
        return invalidated, inv, skip

    def test_release_invalidates(self):
        invalidated, inv, skip = self._replay([PageEvent(PageOp.RELEASE, 7)])
        assert invalidated == [7]
        assert (inv, skip) == (1, 0)

    def test_newest_alloc_wins(self):
        """A released-then-reallocated page must be left alone."""
        events = [PageEvent(PageOp.RELEASE, 7), PageEvent(PageOp.ALLOC, 7)]
        invalidated, inv, skip = self._replay(events)
        assert invalidated == []
        assert (inv, skip) == (0, 1)

    def test_newest_release_wins(self):
        events = [PageEvent(PageOp.ALLOC, 7), PageEvent(PageOp.RELEASE, 7)]
        invalidated, _, _ = self._replay(events)
        assert invalidated == [7]

    def test_each_page_handled_once(self):
        events = [
            PageEvent(PageOp.RELEASE, 7),
            PageEvent(PageOp.ALLOC, 7),
            PageEvent(PageOp.RELEASE, 7),
        ]
        invalidated, inv, skip = self._replay(events)
        assert invalidated == [7]
        assert (inv, skip) == (1, 0)

    def test_already_invalid_not_counted(self):
        inv, skip = replay_page_events(
            [PageEvent(PageOp.RELEASE, 7)], lambda g: False
        )
        assert (inv, skip) == (0, 0)

    def test_mixed_pages(self):
        events = [
            PageEvent(PageOp.RELEASE, 1),
            PageEvent(PageOp.RELEASE, 2),
            PageEvent(PageOp.ALLOC, 2),
            PageEvent(PageOp.RELEASE, 3),
        ]
        invalidated, inv, skip = self._replay(events)
        assert sorted(invalidated) == [1, 3]
        assert (inv, skip) == (2, 1)


class TestLockModel:
    def test_no_churn_no_slowdown(self):
        assert lock_service_slowdown(0.0, 48, 1e-6) == 1.0

    def test_wrmem_strawman_divides_by_three(self):
        """Section 4.2.3: one empty hypercall per release (one release per
        15 us per thread, 48 threads) divides performance by ~3."""
        slowdown = lock_service_slowdown(1.0 / 15e-6, 48, 1e-6, 1)
        assert 2.5 < slowdown < 4.0

    def test_batching_makes_it_negligible(self):
        per_event = (1e-6 + 64 * 0.109e-6) / 64
        slowdown = lock_service_slowdown(1.0 / 15e-6, 48, per_event, 4)
        assert slowdown < 1.05

    def test_partitioning_helps(self):
        per_event = 0.3e-6
        one = lock_service_slowdown(20_000, 48, per_event, 1)
        four = lock_service_slowdown(20_000, 48, per_event, 4)
        assert four < one
