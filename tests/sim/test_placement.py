"""Placement views and their synchronisation with the p2m table."""

import pytest

from repro.errors import ReproError
from repro.hypervisor.p2m import P2MTable
from repro.sim.placement import PlacementTracker, SegmentPlacement


class TestSegmentPlacement:
    def test_place_and_counts(self):
        p = SegmentPlacement(num_pages=10, num_nodes=4)
        p.place(0, 2)
        p.place(1, 2)
        p.place(2, 3)
        assert p.counts.tolist() == [0, 0, 2, 1]
        assert p.mapped_pages == 3
        assert p.nodes[0] == 2
        assert p.nodes[5] == -1

    def test_replace_moves_count(self):
        p = SegmentPlacement(10, 4)
        p.place(0, 1)
        p.place(0, 3)
        assert p.counts.tolist() == [0, 0, 0, 1]

    def test_release(self):
        p = SegmentPlacement(10, 4)
        p.place(0, 1)
        p.release(0)
        assert p.mapped_pages == 0
        p.release(0)  # idempotent
        assert p.mapped_pages == 0

    def test_distribution_uniform(self):
        p = SegmentPlacement(4, 4)
        p.place(0, 0)
        p.place(1, 0)
        p.place(2, 1)
        p.place(3, 2)
        dist = p.distribution()
        assert dist.tolist() == [0.5, 0.25, 0.25, 0.0]

    def test_distribution_with_hot_page(self):
        p = SegmentPlacement(3, 4)
        p.place(0, 2)  # hot page
        p.place(1, 0)
        p.place(2, 1)
        dist = p.distribution(hot_weight=0.7)
        assert dist[2] == pytest.approx(0.7 + 0.3 / 3)
        assert dist.sum() == pytest.approx(1.0)

    def test_empty_distribution(self):
        p = SegmentPlacement(4, 4)
        assert p.distribution().sum() == 0.0

    def test_zero_pages_rejected(self):
        with pytest.raises(ReproError):
            SegmentPlacement(0, 4)


class TestTrackerWithP2M:
    def test_tracker_follows_p2m_lifecycle(self):
        tracker = PlacementTracker(node_of_frame=lambda mfn: mfn // 100)
        p2m = P2MTable(domain_id=1)
        p2m.observer = tracker
        placement = SegmentPlacement(4, 4)
        tracker.track(10, placement, 0)
        tracker.track(11, placement, 1)

        p2m.set_entry(10, 250)  # node 2
        p2m.set_entry(11, 50)  # node 0
        assert placement.nodes[0] == 2
        assert placement.nodes[1] == 0

        p2m.invalidate(10)
        assert placement.nodes[0] == -1

        p2m.set_entry(11, 350)  # migrate-like remap to node 3
        assert placement.nodes[1] == 3

    def test_untracked_pages_ignored(self):
        tracker = PlacementTracker(node_of_frame=lambda mfn: 0)
        p2m = P2MTable(domain_id=1)
        p2m.observer = tracker
        p2m.set_entry(99, 1)  # no tracked segment: must not raise

    def test_untrack_stops_updates(self):
        tracker = PlacementTracker(node_of_frame=lambda mfn: 1)
        p2m = P2MTable(domain_id=1)
        p2m.observer = tracker
        placement = SegmentPlacement(4, 4)
        tracker.track(10, placement, 0)
        p2m.set_entry(10, 0)
        tracker.untrack(10)
        p2m.invalidate(10)
        assert placement.nodes[0] == 1  # stale by design after untrack

    def test_migration_remap_updates_view(self):
        tracker = PlacementTracker(node_of_frame=lambda mfn: mfn // 100)
        p2m = P2MTable(domain_id=1)
        p2m.observer = tracker
        placement = SegmentPlacement(4, 4)
        tracker.track(5, placement, 2)
        p2m.set_entry(5, 100)
        p2m.write_protect(5)
        p2m.remap(5, 300)
        assert placement.nodes[2] == 3
