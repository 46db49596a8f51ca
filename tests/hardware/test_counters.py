"""Performance counters and derived metrics."""

import numpy as np
import pytest

from repro.hardware.counters import PerfCounters


@pytest.fixture
def counters():
    return PerfCounters(num_nodes=4)


class TestRecording:
    def test_record_accumulates(self, counters):
        counters.record(0, 1, 10)
        counters.record(0, 1, 5)
        assert counters.matrix[0, 1] == 15

    def test_record_matrix(self, counters):
        counters.record_matrix(np.ones((4, 4)))
        counters.record_matrix(np.ones((4, 4)))
        assert counters.matrix.sum() == 32

    def test_end_epoch_archives_and_resets(self, counters):
        counters.record(1, 2, 7)
        snap = counters.end_epoch()
        assert snap[1, 2] == 7
        assert counters.matrix.sum() == 0
        assert len(counters.epoch_history) == 1


class TestMetrics:
    def test_balanced_imbalance_zero(self, counters):
        counters.record_matrix(np.full((4, 4), 10.0))
        assert counters.imbalance() == pytest.approx(0.0)

    def test_single_node_imbalance(self, counters):
        # All accesses to node 0: RSD = sqrt(n-1) for n nodes.
        for s in range(4):
            counters.record(s, 0, 100)
        assert counters.imbalance() == pytest.approx(np.sqrt(3), rel=1e-6)

    def test_empty_imbalance_zero(self, counters):
        assert counters.imbalance() == 0.0

    def test_node_access_counts_are_column_sums(self, counters):
        counters.record(0, 2, 5)
        counters.record(1, 2, 7)
        assert counters.node_access_counts()[2] == 12


class TestClaim:
    """Carrefour monopolises the counter registers (Table 1 footnote)."""

    def test_claim_release(self, counters):
        counters.claim("carrefour")
        assert counters.owner == "carrefour"
        counters.release("carrefour")
        assert counters.owner is None

    def test_conflicting_claim_rejected(self, counters):
        counters.claim("carrefour")
        with pytest.raises(RuntimeError, match="claimed"):
            counters.claim("table1-profiler")

    def test_same_owner_reclaim_ok(self, counters):
        counters.claim("carrefour")
        counters.claim("carrefour")

    def test_release_by_non_owner_ignored(self, counters):
        counters.claim("carrefour")
        counters.release("someone-else")
        assert counters.owner == "carrefour"


class TestSnapshotAliasing:
    """Regression: the end_epoch return aliases the archived history
    entry (RPR009 archive-alias); it must be frozen so a caller cannot
    rewrite epoch_history through it."""

    def test_snapshot_is_read_only(self, counters):
        counters.record(0, 1, 3)
        snap = counters.end_epoch()
        assert not snap.flags.writeable
        with pytest.raises(ValueError):
            snap[0, 1] = 99.0

    def test_history_entry_is_the_frozen_snapshot(self, counters):
        counters.record(2, 3, 5)
        snap = counters.end_epoch()
        assert counters.epoch_history[0] is snap
        assert counters.epoch_history[0][2, 3] == 5

    def test_next_epoch_matrix_stays_writable(self, counters):
        counters.end_epoch()
        counters.record(0, 0, 1)  # must not raise
        assert counters.matrix[0, 0] == 1
