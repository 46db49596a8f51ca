"""Property-based tests of the page-event queue and its replay."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.page_queue import (
    PageEvent,
    PageOp,
    PartitionedPageQueue,
    replay_page_events,
)

events_strategy = st.lists(
    st.tuples(st.sampled_from([PageOp.ALLOC, PageOp.RELEASE]),
              st.integers(min_value=0, max_value=63)),
    max_size=200,
)


class TestReplayProperties:
    @given(events_strategy)
    def test_replay_matches_last_op_semantics(self, raw):
        """Replay must honour exactly the newest operation per page."""
        events = [PageEvent(op, g) for op, g in raw]
        last_op = {}
        for op, g in raw:
            last_op[g] = op
        expected_invalidated = {
            g for g, op in last_op.items() if op is PageOp.RELEASE
        }
        invalidated = set()
        inv, skip = replay_page_events(
            events, lambda g: invalidated.add(g) or True
        )
        assert invalidated == expected_invalidated
        assert inv == len(expected_invalidated)
        assert skip == len(last_op) - len(expected_invalidated)

    @given(events_strategy)
    def test_replay_touches_each_page_at_most_once(self, raw):
        events = [PageEvent(op, g) for op, g in raw]
        calls = []
        replay_page_events(events, lambda g: calls.append(g) or True)
        assert len(calls) == len(set(calls))


class TestQueueProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=1023), max_size=300),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=4),
    )
    def test_no_event_lost_or_duplicated(self, gpfns, batch, partitions):
        """Every recorded event is flushed exactly once."""
        flushed = []
        queue = PartitionedPageQueue(
            flush_fn=lambda events: flushed.extend(events),
            batch_size=batch,
            num_partitions=partitions,
        )
        for g in gpfns:
            queue.record(PageOp.RELEASE, g)
        queue.flush_all()
        assert sorted(e.gpfn for e in flushed) == sorted(gpfns)
        assert queue.pending() == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=1023), max_size=300),
        st.integers(min_value=1, max_value=16),
    )
    def test_partition_order_preserved(self, gpfns, batch):
        """Within one partition, events flush in record order."""
        flushed = []
        queue = PartitionedPageQueue(
            flush_fn=lambda events: flushed.extend(events),
            batch_size=batch,
            num_partitions=4,
        )
        for g in gpfns:
            queue.record(PageOp.ALLOC, g)
        queue.flush_all()
        for part in range(4):
            recorded = [g for g in gpfns if g % 4 == part]
            seen = [e.gpfn for e in flushed if e.gpfn % 4 == part]
            assert seen == recorded

    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=200))
    def test_stats_consistent(self, gpfns):
        queue = PartitionedPageQueue(
            flush_fn=lambda events: None, batch_size=8, num_partitions=4
        )
        for g in gpfns:
            queue.record(PageOp.RELEASE, g)
        stats = queue.stats
        assert stats.events == len(gpfns)
        assert stats.flushed_events + queue.pending() == stats.events
