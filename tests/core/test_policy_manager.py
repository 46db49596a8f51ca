"""Policy manager: boot defaults, runtime switching, hypercall routing."""

import pytest

from repro.core.policies.base import PolicyName, PolicySpec
from repro.errors import HypercallError, PolicyError
from repro.hypervisor.hypercalls import Hypercall
from repro.hypervisor.xen import Hypervisor


@pytest.fixture
def hv(machine4):
    return Hypervisor(machine4)


def domU(hv, **kwargs):
    kwargs.setdefault("num_vcpus", 2)
    kwargs.setdefault("memory_pages", 64)
    return hv.create_domain("t", **kwargs)


class TestBoot:
    def test_default_boot_policy_is_round_4k(self, hv):
        """Section 4.2.1: a VM boots with round-4K by default."""
        d = domU(hv)
        assert d.numa_policy.name == "round-4k"

    def test_round_1g_boot_option(self, hv):
        d = domU(hv, boot_policy=PolicySpec(PolicyName.ROUND_1G))
        assert d.numa_policy.name == "round-1g"

    def test_double_boot_rejected(self, hv):
        d = domU(hv)
        with pytest.raises(PolicyError):
            hv.policy_manager.boot_domain(d)


class TestRuntimeSwitch:
    def test_switch_to_first_touch(self, hv):
        d = domU(hv)
        policy = hv.policy_manager.set_policy(d.domain_id, PolicyName.FIRST_TOUCH)
        assert policy.name == "first-touch"
        assert d.numa_policy is policy

    def test_no_runtime_switch_to_round_1g(self, hv):
        """Section 4.2.1: round-1G is boot-only."""
        d = domU(hv)
        with pytest.raises(PolicyError, match="boot option"):
            hv.policy_manager.set_policy(d.domain_id, PolicyName.ROUND_1G)

    def test_carrefour_toggle_keeps_base(self, hv):
        d = domU(hv)
        hv.policy_manager.set_policy(d.domain_id, PolicyName.FIRST_TOUCH)
        hv.policy_manager.set_policy(d.domain_id, carrefour=True)
        assert d.numa_policy.name == "first-touch/carrefour"
        hv.policy_manager.set_policy(d.domain_id, carrefour=False)
        assert d.numa_policy.name == "first-touch"

    def test_carrefour_on_round_1g_rejected(self, hv):
        d = domU(hv, boot_policy=PolicySpec(PolicyName.ROUND_1G))
        with pytest.raises(PolicyError):
            hv.policy_manager.set_policy(d.domain_id, carrefour=True)

    def test_change_log(self, hv):
        d = domU(hv)
        hv.policy_manager.set_policy(d.domain_id, PolicyName.FIRST_TOUCH)
        changes = [
            c for c in hv.policy_manager.changes if c.domain_id == d.domain_id
        ]
        assert [c.new for c in changes] == ["round-4k", "first-touch"]

    def test_unknown_domain_rejected(self, hv):
        with pytest.raises(PolicyError):
            hv.policy_manager.set_policy(99, PolicyName.FIRST_TOUCH)


class TestHypercalls:
    def test_set_policy_hypercall(self, hv):
        d = domU(hv)
        name = hv.hypercalls.dispatch(
            Hypercall.NUMA_SET_POLICY,
            d.domain_id,
            0,
            {"policy": "first-touch", "carrefour": None},
        )
        assert name == "first-touch"

    def test_set_policy_bad_args(self, hv):
        d = domU(hv)
        with pytest.raises(HypercallError):
            hv.hypercalls.dispatch(Hypercall.NUMA_SET_POLICY, d.domain_id, 0, None)

    def test_page_events_ignored_without_first_touch(self, hv):
        d = domU(hv)
        result = hv.hypercalls.dispatch(
            Hypercall.NUMA_PAGE_EVENTS, d.domain_id, 0, []
        )
        assert result == (0, 0)
        assert hv.policy_manager.ignored_event_flushes == 1

    def test_page_events_routed_to_first_touch(self, hv):
        from repro.core.page_queue import PageEvent, PageOp

        d = domU(hv)
        hv.policy_manager.set_policy(d.domain_id, PolicyName.FIRST_TOUCH)
        inv, skip = hv.hypercalls.dispatch(
            Hypercall.NUMA_PAGE_EVENTS,
            d.domain_id,
            0,
            [PageEvent(PageOp.RELEASE, 5)],
        )
        assert (inv, skip) == (1, 0)
        assert d.p2m.mfn_if_valid(5) == -1

    def test_carrefour_control_requires_dom0(self, hv):
        d = domU(hv)
        hv.policy_manager.set_policy(d.domain_id, carrefour=True)
        with pytest.raises(HypercallError, match="dom0"):
            hv.hypercalls.dispatch(
                Hypercall.CARREFOUR_CONTROL,
                d.domain_id,
                0,
                {"target_domain": d.domain_id, "decisions": []},
            )

    def test_carrefour_control_rejects_non_carrefour_domain(self, hv):
        d = domU(hv)
        with pytest.raises(HypercallError):
            hv.hypercalls.dispatch(
                Hypercall.CARREFOUR_CONTROL,
                0,
                0,
                {"target_domain": d.domain_id, "decisions": []},
            )

    def test_forget_domain_releases_counters(self, hv):
        d = domU(hv)
        hv.policy_manager.set_policy(d.domain_id, carrefour=True)
        assert hv.machine.counters.owner == "carrefour"
        hv.destroy_domain(d)
        assert hv.machine.counters.owner is None
