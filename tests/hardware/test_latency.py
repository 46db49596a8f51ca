"""Latency model: Table 3 calibration and congestion behaviour."""

import pytest

from repro.hardware.latency import LatencyModel


@pytest.fixture
def model():
    return LatencyModel()


class TestTable3Calibration:
    """The model must reproduce the paper's Table 3 exactly."""

    @pytest.mark.parametrize(
        "hops,expected", [(0, 156.0), (1, 276.0), (2, 383.0)]
    )
    def test_uncontended(self, model, hops, expected):
        assert model.memory_latency_cycles(hops, 0.0, 0.0) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "hops,expected", [(0, 697.0), (1, 740.0), (2, 863.0)]
    )
    def test_contended(self, model, hops, expected):
        cap = model.rho_cap
        assert model.memory_latency_cycles(hops, cap, cap) == pytest.approx(expected)


class TestQueueing:
    def test_zero_rho(self, model):
        assert model.queueing(0.0) == 0.0

    def test_monotone(self, model):
        values = [model.queueing(rho) for rho in (0.1, 0.3, 0.5, 0.8, 0.95, 1.2, 2.0)]
        assert values == sorted(values)
        assert values[0] > 0

    def test_linear_tail_beyond_knee(self, model):
        """Past the knee, latency keeps rising (throughput self-limits)."""
        cap = model.rho_cap
        at_cap = model.queueing(cap)
        beyond = model.queueing(cap + 0.1)
        far = model.queueing(cap + 0.2)
        assert beyond > at_cap
        # Linear: equal increments.
        assert (far - beyond) == pytest.approx(beyond - at_cap)

    def test_negative_rho_clamped(self, model):
        assert model.queueing(-1.0) == 0.0


class TestCongestionSemantics:
    def test_remote_uses_worst_of_controller_and_link(self, model):
        only_controller = model.memory_latency_cycles(1, 0.8, 0.0)
        only_link = model.memory_latency_cycles(1, 0.0, 0.8)
        both = model.memory_latency_cycles(1, 0.8, 0.8)
        assert only_controller == pytest.approx(only_link)
        assert both == pytest.approx(only_controller)

    def test_local_ignores_links(self, model):
        assert model.memory_latency_cycles(0, 0.0, 0.9) == pytest.approx(156.0)

    def test_hops_beyond_table_clamp(self, model):
        # Hop counts beyond the calibrated range use the farthest entry.
        assert model.memory_latency_cycles(5, 0.0, 0.0) == pytest.approx(383.0)


class TestConversions:
    def test_cycle_time_at_2_2ghz(self, model):
        assert model.cycles_to_seconds(2.2e9) == pytest.approx(1.0)


class TestValidation:
    def test_mismatched_tuples_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(base_cycles=(1.0, 2.0), contended_cycles=(3.0, 4.0, 5.0))

    def test_contended_below_base_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(
                base_cycles=(100.0, 200.0, 300.0),
                contended_cycles=(50.0, 400.0, 500.0),
            )
