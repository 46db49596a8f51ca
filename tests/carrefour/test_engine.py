"""The Carrefour engine: metrics, enablement logic, user/system split."""

import numpy as np
import pytest

from repro.carrefour.engine import (
    CarrefourConfig,
    CarrefourEngine,
    SystemComponent,
    UserComponent,
)
from repro.carrefour.metrics import compute_metrics
from repro.core.policies.base import EpochObservation
from repro.hardware.counters import HotPageSample, PerfCounters


def observation(matrix, epoch_seconds=1.0, hot_pages=(), max_link_rho=0.0):
    matrix = np.asarray(matrix, dtype=float)
    return EpochObservation(
        epoch_seconds=epoch_seconds,
        access_matrix=matrix,
        controller_rho=matrix.sum(axis=0) / 1e9,
        max_link_rho=max_link_rho,
        hot_pages=list(hot_pages),
    )


def on_node(node):
    """A batch placement putting every page on ``node``."""
    return lambda pages: np.full(len(pages), node, dtype=np.int64)


def concentrated_matrix(total=1e9, nodes=4):
    m = np.zeros((nodes, nodes))
    m[:, 0] = total / nodes
    return m


class TestMetrics:
    def test_overloaded_underloaded_detection(self):
        obs = observation(concentrated_matrix())
        metrics = compute_metrics(obs)
        assert metrics.overloaded_nodes == (0,)
        assert set(metrics.underloaded_nodes) == {1, 2, 3}
        assert metrics.imbalance > 1.0

    def test_balanced_no_outliers(self):
        obs = observation(np.full((4, 4), 100.0))
        metrics = compute_metrics(obs)
        assert metrics.overloaded_nodes == ()
        assert metrics.underloaded_nodes == ()

    def test_access_rate(self):
        obs = observation(np.full((4, 4), 100.0), epoch_seconds=2.0)
        assert compute_metrics(obs).access_rate_per_s == pytest.approx(800.0)


class TestUserComponent:
    def _user(self, **kwargs):
        return UserComponent(CarrefourConfig(**kwargs), np.random.default_rng(0))

    def test_idle_below_rate_threshold(self):
        user = self._user(min_access_rate_per_s=1e12)
        result = user.decide(
            compute_metrics(observation(concentrated_matrix())), [], on_node(0)
        )
        assert not result.decisions
        assert not result.interleave_enabled

    def test_interleave_enabled_on_imbalance(self):
        user = self._user(min_access_rate_per_s=1.0)
        hot = [
            HotPageSample(page=i, domain_id=1, node_accesses=(100, 100, 100, 100))
            for i in range(5)
        ]
        result = user.decide(
            compute_metrics(observation(concentrated_matrix(), hot_pages=hot)),
            hot,
            on_node(0),
        )
        assert result.interleave_enabled
        assert result.decisions

    def test_migration_enabled_on_poor_locality(self):
        user = self._user(min_access_rate_per_s=1.0)
        matrix = np.full((4, 4), 100.0)  # fully remote-ish, local frac 0.25
        hot = [HotPageSample(page=1, domain_id=1, node_accesses=(0, 400, 0, 0))]
        result = user.decide(
            compute_metrics(observation(matrix)), hot, on_node(0)
        )
        assert result.migration_enabled
        assert result.decisions[0].dst_node == 1

    def test_replication_disabled_by_default(self):
        user = self._user(min_access_rate_per_s=1.0)
        matrix = np.full((4, 4), 100.0)
        hot = [
            HotPageSample(
                page=1, domain_id=1, node_accesses=(200, 200, 0, 0),
                write_fraction=0.0,
            )
        ]
        result = user.decide(compute_metrics(observation(matrix)), hot, on_node(0))
        assert not result.replication_enabled

    def test_budget_cap(self):
        user = self._user(min_access_rate_per_s=1.0, migration_budget=3)
        hot = [
            HotPageSample(page=i, domain_id=1, node_accesses=(100, 100, 100, 100))
            for i in range(10)
        ]
        result = user.decide(
            compute_metrics(observation(concentrated_matrix())), hot, on_node(0)
        )
        assert len(result.decisions) <= 3


class TestEngine:
    def _engine(self, apply_results=True):
        counters = PerfCounters(4)
        system = SystemComponent(
            counters,
            on_node(0),
            lambda decision: apply_results,
        )
        config = CarrefourConfig(min_access_rate_per_s=1.0)
        return CarrefourEngine(system, config, np.random.default_rng(0)), counters

    def test_iteration_applies_decisions(self):
        engine, _ = self._engine()
        hot = [
            HotPageSample(page=i, domain_id=1, node_accesses=(100, 0, 0, 0))
            for i in range(5)
        ]
        result = engine.run_iteration(
            observation(concentrated_matrix(), hot_pages=hot)
        )
        assert result.applied == len(result.decisions) > 0
        assert engine.system.total_applied == result.applied

    def test_iteration_cost_zero_when_idle(self):
        engine, _ = self._engine()
        engine.config = CarrefourConfig(min_access_rate_per_s=1e15)
        result = engine.run_iteration(observation(concentrated_matrix()))
        assert engine.iteration_cost_seconds(result) == 0.0

    def test_counters_exclusivity(self):
        """Carrefour monopolises the counters (Table 1 footnote)."""
        engine, counters = self._engine()
        with pytest.raises(RuntimeError):
            counters.claim("profiler")
        engine.shutdown()
        counters.claim("profiler")

    def test_history_recorded(self):
        engine, _ = self._engine()
        engine.run_iteration(observation(concentrated_matrix()))
        engine.run_iteration(observation(concentrated_matrix()))
        assert len(engine.history) == 2
