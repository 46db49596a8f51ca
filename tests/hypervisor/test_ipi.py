"""IPI cost model (Figure 5)."""

import pytest

from repro.errors import SchedulerError
from repro.hypervisor.ipi import IpiModel


@pytest.fixture
def model():
    return IpiModel()


class TestTotals:
    def test_native_total(self, model):
        assert model.cost("native") == pytest.approx(0.9e-6)

    def test_guest_total(self, model):
        assert model.cost("guest") == pytest.approx(10.9e-6)

    def test_guest_is_order_of_magnitude_worse(self, model):
        assert 10 < model.cost("guest") / model.cost("native") < 15

    def test_unknown_mode_rejected(self, model):
        with pytest.raises(SchedulerError):
            model.cost("paravirt")


class TestRepartition:
    def test_guest_has_exit_entry_steps(self, model):
        names = {c.name for c in model.components("guest")}
        assert "sender_vmexit" in names
        assert "vmentry_and_delivery" in names


class TestWakeupOverhead:
    def test_scales_with_rate(self, model):
        low = model.wakeup_overhead(1000, "guest")
        high = model.wakeup_overhead(10000, "guest")
        assert high == pytest.approx(10 * low)

    def test_memcached_rate_is_crushing_in_guest(self, model):
        """127k switches/s/core (Table 2) exceeds a core's whole second."""
        assert model.wakeup_overhead(127_100, "guest") > 1.0
        assert model.wakeup_overhead(127_100, "native") < 0.2
