"""Hypercall table: dispatch, stats and the cost model."""

import pytest

from repro.errors import HypercallError
from repro.hypervisor.hypercalls import (
    Hypercall,
    HypercallCostModel,
    HypercallTable,
)


@pytest.fixture
def table():
    return HypercallTable()


class TestDispatch:
    def test_empty_hypercall_builtin(self, table):
        assert table.dispatch(Hypercall.EMPTY, 1, 0) is None

    def test_register_and_dispatch(self, table):
        table.register(Hypercall.NUMA_SET_POLICY, lambda d, v, a: (d, v, a))
        assert table.dispatch(Hypercall.NUMA_SET_POLICY, 2, 3, "x") == (2, 3, "x")

    def test_unregistered_rejected(self, table):
        with pytest.raises(HypercallError):
            table.dispatch(Hypercall.NUMA_PAGE_EVENTS, 1, 0)

    def test_duplicate_registration_rejected(self, table):
        table.register(Hypercall.NUMA_SET_POLICY, lambda d, v, a: None)
        with pytest.raises(HypercallError):
            table.register(Hypercall.NUMA_SET_POLICY, lambda d, v, a: None)

    def test_stats_accumulate(self, table):
        table.dispatch(Hypercall.EMPTY, 1, 0)
        table.dispatch(Hypercall.EMPTY, 1, 0)
        count, seconds = table.stats[Hypercall.EMPTY]
        assert count == 2
        assert seconds == pytest.approx(2 * table.costs.base_seconds)


class TestFailureAccounting:
    def test_raising_handler_still_charged_base_cost(self, table):
        """A guest pays for the trap even when the handler fails — the
        entry/exit happened regardless."""

        def boom(domain_id, vcpu_id, args):
            raise RuntimeError("handler exploded")

        table.register(Hypercall.NUMA_SET_POLICY, boom)
        with pytest.raises(RuntimeError, match="handler exploded"):
            table.dispatch(Hypercall.NUMA_SET_POLICY, 1, 0)
        count, seconds = table.stats[Hypercall.NUMA_SET_POLICY]
        assert count == 1
        assert seconds == pytest.approx(table.costs.base_seconds)

    def test_failed_payload_call_charged_base_not_payload(self, table):
        """The payload cost model only applies to completed calls."""

        def boom(domain_id, vcpu_id, args):
            raise ValueError("bad batch")

        table.register(Hypercall.NUMA_PAGE_EVENTS, boom)
        with pytest.raises(ValueError):
            table.dispatch(Hypercall.NUMA_PAGE_EVENTS, 1, 0, list(range(64)))
        _, seconds = table.stats[Hypercall.NUMA_PAGE_EVENTS]
        assert seconds == pytest.approx(table.costs.base_seconds)


class TestEmptyOverride:
    def test_default_empty_replaceable_once(self, table):
        table.register(Hypercall.EMPTY, lambda d, v, a: "probe")
        assert table.dispatch(Hypercall.EMPTY, 1, 0) == "probe"

    def test_second_empty_registration_rejected(self, table):
        table.register(Hypercall.EMPTY, lambda d, v, a: "probe")
        with pytest.raises(HypercallError):
            table.register(Hypercall.EMPTY, lambda d, v, a: "again")


class TestCostModel:
    def test_flush_cost_grows_with_events(self):
        costs = HypercallCostModel()
        assert costs.flush_cost(64) > costs.flush_cost(1) > costs.base_seconds

    def test_invalidation_share_at_batch_64(self):
        """Section 4.2.4: 87.5% of the flush is spent invalidating."""
        costs = HypercallCostModel()
        assert costs.invalidation_share(64) == pytest.approx(0.875, abs=0.01)

    def test_page_events_cost_counts_payload(self, table):
        table.register(Hypercall.NUMA_PAGE_EVENTS, lambda d, v, a: None)
        table.dispatch(Hypercall.NUMA_PAGE_EVENTS, 1, 0, list(range(64)))
        _, seconds = table.stats[Hypercall.NUMA_PAGE_EVENTS]
        assert seconds == pytest.approx(table.costs.flush_cost(64))
