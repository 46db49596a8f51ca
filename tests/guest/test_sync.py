"""Synchronisation cost model: blocking waits vs MCS spin loops."""

import pytest

from repro.guest.sync import SyncModel


@pytest.fixture
def model():
    return SyncModel()


class TestBlocking:
    def test_zero_rate_costs_nothing(self, model):
        assert model.overhead_fraction(0.0, "guest") == 0.0

    def test_guest_much_worse_than_native(self, model):
        rate = 10_000.0
        native = model.overhead_fraction(rate, "native")
        guest = model.overhead_fraction(rate, "guest")
        assert guest / native == pytest.approx(10.9 / 0.9, rel=1e-6)

    def test_overhead_saturates(self, model):
        assert model.overhead_fraction(1e9, "guest") <= 0.9

    def test_linear_below_saturation(self, model):
        low = model.overhead_fraction(1000, "guest")
        high = model.overhead_fraction(2000, "guest")
        assert high == pytest.approx(2 * low)


class TestMcs:
    def test_mcs_removes_ipi_cost(self, model):
        rate = 30_000.0
        blocking = model.overhead_fraction(rate, "guest")
        mcs = model.overhead_fraction(rate, "guest", mcs_locks=True)
        assert mcs == model.mcs_spin_overhead
        assert mcs < blocking

    def test_mcs_not_free(self, model):
        assert model.overhead_fraction(30_000.0, "native", mcs_locks=True) > 0
