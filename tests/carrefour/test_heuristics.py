"""Carrefour's per-page heuristics, through the user component's decide."""

import numpy as np

from repro.carrefour.engine import CarrefourConfig, UserComponent
from repro.carrefour.heuristics import Action
from repro.carrefour.metrics import CarrefourMetrics
from repro.hardware.counters import HotPageSample


def sample(page, accesses, write_fraction=0.0):
    return HotPageSample(
        page=page, domain_id=1, node_accesses=tuple(accesses),
        write_fraction=write_fraction,
    )


def by_dict(placement):
    """A batch placement over a page -> node dict (-1 where absent)."""
    return lambda pages: np.array(
        [placement.get(int(p), -1) for p in pages], dtype=np.int64
    )


def decide(hot, placement, *, congested=False, imbalanced=False,
           overloaded=(), underloaded=(), rng=None, **config):
    """Run decide with exactly the named heuristics switched on.

    ``congested`` enables migration (and replication when the config
    asks for it), ``imbalanced`` enables interleave.
    """
    metrics = CarrefourMetrics(
        access_rate_per_s=1e12,
        imbalance=1.0 if imbalanced else 0.0,
        local_fraction=0.0 if congested else 1.0,
        max_link_rho=0.0,
        node_loads=(0.0,) * 4,
        overloaded_nodes=tuple(overloaded),
        underloaded_nodes=tuple(underloaded),
    )
    user = UserComponent(CarrefourConfig(**config), rng or np.random.default_rng(0))
    return user.decide(metrics, hot, by_dict(placement)).decisions


def migration(hot, placement, budget, single_node_share=0.9):
    return decide(
        hot, placement, congested=True, migration_budget=budget,
        single_node_share=single_node_share,
    )


def interleave(hot, placement, overloaded, underloaded, budget, rng):
    return decide(
        hot, placement, imbalanced=True, overloaded=overloaded,
        underloaded=underloaded, migration_budget=budget, rng=rng,
    )


def replication(hot, placement, budget):
    return decide(
        hot, placement, congested=True, enable_replication=True,
        migration_budget=budget,
    )


class TestMigration:
    def test_single_remote_accessor_migrates(self):
        pages = {10: 0}
        hot = [sample(10, (0, 100, 0, 0))]
        decisions = migration(hot, pages, budget=10)
        assert len(decisions) == 1
        assert decisions[0].action is Action.MIGRATE
        assert decisions[0].dst_node == 1

    def test_already_local_not_migrated(self):
        hot = [sample(10, (0, 100, 0, 0))]
        decisions = migration(hot, {10: 1}, budget=10)
        assert decisions == []

    def test_shared_page_not_migrated(self):
        hot = [sample(10, (50, 50, 0, 0))]
        decisions = migration(hot, {10: 2}, budget=10)
        assert decisions == []

    def test_dominance_threshold(self):
        hot = [sample(10, (8, 92, 0, 0))]
        assert migration(hot, {10: 0}, 10, single_node_share=0.9)
        assert not migration(hot, {10: 0}, 10, single_node_share=0.95)

    def test_budget_respected(self):
        hot = [sample(i, (0, 100, 0, 0)) for i in range(20)]
        placement = {i: 0 for i in range(20)}
        decisions = migration(hot, placement, budget=5)
        assert len(decisions) == 5

    def test_unmapped_page_skipped(self):
        hot = [sample(10, (0, 100, 0, 0))]
        assert migration(hot, {}, budget=10) == []


class TestInterleave:
    def test_moves_from_overloaded_to_underloaded(self):
        rng = np.random.default_rng(1)
        hot = [sample(i, (100, 0, 0, 0)) for i in range(10)]
        placement = {i: 0 for i in range(10)}
        decisions = interleave(
            hot, placement, overloaded=[0], underloaded=[2, 3],
            budget=10, rng=rng,
        )
        assert len(decisions) == 10
        assert all(d.action is Action.INTERLEAVE for d in decisions)
        assert {d.dst_node for d in decisions} <= {2, 3}

    def test_pages_on_ok_nodes_untouched(self):
        rng = np.random.default_rng(1)
        hot = [sample(1, (100, 0, 0, 0))]
        decisions = interleave(
            hot, {1: 1}, overloaded=[0], underloaded=[2],
            budget=10, rng=rng,
        )
        assert decisions == []

    def test_no_targets_no_decisions(self):
        rng = np.random.default_rng(1)
        hot = [sample(1, (100, 0, 0, 0))]
        assert (
            interleave(hot, {1: 0}, [0], [], 10, rng) == []
        )


class TestReplication:
    def test_read_only_shared_pages_selected(self):
        hot = [sample(1, (50, 50, 0, 0), write_fraction=0.0)]
        decisions = replication(hot, {1: 0}, budget=10)
        assert len(decisions) == 1
        assert decisions[0].action is Action.REPLICATE

    def test_written_pages_excluded(self):
        hot = [sample(1, (50, 50, 0, 0), write_fraction=0.5)]
        assert replication(hot, {1: 0}, budget=10) == []

    def test_single_node_pages_excluded(self):
        hot = [sample(1, (100, 0, 0, 0), write_fraction=0.0)]
        assert replication(hot, {1: 0}, budget=10) == []
