"""The hypervisor facade: domain lifecycle, policy switching, I/O mode."""

import pytest

from repro.core.policies.base import PolicyName
from repro.errors import PolicyError


class TestDom0:
    def test_dom0_exists_on_node0(self, hypervisor):
        assert hypervisor.dom0.domain_id == 0
        assert hypervisor.dom0.home_nodes == (0,)
        assert hypervisor.dom0.p2m.num_valid == hypervisor.dom0.memory_pages

    def test_dom0_cannot_be_destroyed(self, hypervisor):
        with pytest.raises(PolicyError):
            hypervisor.destroy_domain(hypervisor.dom0)


class TestDomainLifecycle:
    def test_create_boots_round_4k(self, hypervisor):
        d = hypervisor.create_domain("t", num_vcpus=2, memory_pages=64)
        assert d.numa_policy.name == "round-4k"
        assert d.p2m.num_valid == 64
        assert d.built

    def test_explicit_home_nodes(self, hypervisor):
        d = hypervisor.create_domain(
            "t", num_vcpus=2, memory_pages=64, home_nodes=[2, 3]
        )
        assert d.home_nodes == (2, 3)
        machine = hypervisor.machine
        nodes = {
            machine.node_of_frame(d.p2m.translate(g)) for g in d.p2m.valid_gpfns().tolist()
        }
        assert nodes <= {2, 3}

    def test_vcpus_pinned_on_home_nodes(self, hypervisor):
        d = hypervisor.create_domain(
            "t", num_vcpus=2, memory_pages=64, home_nodes=[1]
        )
        for vcpu in d.vcpus:
            pcpu = hypervisor.scheduler.pcpu_of(vcpu)
            assert hypervisor.machine.topology.node_of_cpu(pcpu) == 1

    def test_destroy_releases_everything(self, hypervisor):
        machine = hypervisor.machine
        free_before = sum(
            machine.memory.free_frames_on(n) for n in range(machine.num_nodes)
        )
        d = hypervisor.create_domain("t", num_vcpus=2, memory_pages=64)
        hypervisor.destroy_domain(d)
        free_after = sum(
            machine.memory.free_frames_on(n) for n in range(machine.num_nodes)
        )
        assert free_after == free_before
        assert d.domain_id not in hypervisor.domains

    def test_domain_ids_increment(self, hypervisor):
        d1 = hypervisor.create_domain("a", num_vcpus=1, memory_pages=16)
        d2 = hypervisor.create_domain("b", num_vcpus=1, memory_pages=16)
        assert d2.domain_id == d1.domain_id + 1


class TestPolicySwitch:
    def test_switch_to_first_touch(self, hypervisor):
        d = hypervisor.create_domain("t", num_vcpus=2, memory_pages=64)
        hypervisor.set_policy(d, PolicyName.FIRST_TOUCH)
        assert d.numa_policy.name == "first-touch"
        # A runtime switch keeps the existing mapping.
        assert d.p2m.num_valid == 64

    def test_carrefour_toggle(self, hypervisor):
        d = hypervisor.create_domain("t", num_vcpus=2, memory_pages=64)
        hypervisor.set_policy(d, carrefour=True)
        assert d.numa_policy.name == "round-4k/carrefour"
        hypervisor.set_policy(d, carrefour=False)
        assert d.numa_policy.name == "round-4k"


class TestIoMode:
    def test_stock_xen_is_paravirt(self, hypervisor):
        d = hypervisor.create_domain("t", num_vcpus=2, memory_pages=64)
        assert hypervisor.io_mode(d) == "paravirt"

    def test_xen_plus_uses_passthrough(self, hypervisor_plus):
        d = hypervisor_plus.create_domain("t", num_vcpus=2, memory_pages=64)
        assert hypervisor_plus.io_mode(d) == "passthrough"

    def test_first_touch_disables_passthrough(self, hypervisor_plus):
        """Section 4.4.1/5.3.1: first-touch cannot keep the IOMMU."""
        d = hypervisor_plus.create_domain("t", num_vcpus=2, memory_pages=64)
        hypervisor_plus.set_policy(d, PolicyName.FIRST_TOUCH)
        assert hypervisor_plus.io_mode(d) == "paravirt"

    def test_switch_back_restores_passthrough(self, hypervisor_plus):
        d = hypervisor_plus.create_domain("t", num_vcpus=2, memory_pages=64)
        hypervisor_plus.set_policy(d, PolicyName.FIRST_TOUCH)
        hypervisor_plus.set_policy(d, PolicyName.ROUND_4K)
        assert hypervisor_plus.io_mode(d) == "passthrough"


class TestGuestAccess:
    def test_access_resolves_through_policy(self, hypervisor):
        d = hypervisor.create_domain(
            "t", num_vcpus=2, memory_pages=64, home_nodes=[0, 1]
        )
        hypervisor.set_policy(d, PolicyName.FIRST_TOUCH)
        gpfn = 7
        mfn = d.p2m.invalidate(gpfn)
        hypervisor.allocator.free_page(mfn)
        vcpu_node = hypervisor.vcpu_node(d, 1)
        new_mfn = hypervisor.guest_access(d, 1, gpfn)
        assert hypervisor.machine.node_of_frame(new_mfn) == vcpu_node
