"""Domain and vCPU objects."""

import pytest

from repro.errors import DomainError
from repro.hypervisor.domain import Domain, VCpu


class TestDomainValidation:
    def test_needs_vcpus(self):
        with pytest.raises(DomainError):
            Domain(1, "d", num_vcpus=0, memory_pages=10, home_nodes=(0,))

    def test_needs_memory(self):
        with pytest.raises(DomainError):
            Domain(1, "d", num_vcpus=1, memory_pages=0, home_nodes=(0,))

    def test_needs_home_nodes(self):
        with pytest.raises(DomainError):
            Domain(1, "d", num_vcpus=1, memory_pages=10, home_nodes=())


class TestDomain:
    def test_dom0_flag(self):
        assert Domain(0, "dom0", 1, 10, (0,)).is_dom0
        assert not Domain(1, "u", 1, 10, (0,)).is_dom0

    def test_vcpus_created(self):
        d = Domain(1, "d", num_vcpus=4, memory_pages=10, home_nodes=(0,))
        assert d.num_vcpus == 4
        assert [v.vcpu_id for v in d.vcpus] == [0, 1, 2, 3]
        assert all(v.domain_id == 1 for v in d.vcpus)

    def test_gpfn_range(self):
        d = Domain(1, "d", num_vcpus=1, memory_pages=5, home_nodes=(0,))
        assert list(d.gpfn_range()) == [0, 1, 2, 3, 4]

    def test_vcpu_key(self):
        v = VCpu(domain_id=3, vcpu_id=2)
        assert v.key == (3, 2)

    def test_fresh_p2m(self):
        d = Domain(1, "d", num_vcpus=1, memory_pages=5, home_nodes=(0,))
        assert d.p2m.num_entries == 0
        assert d.numa_policy is None
        assert not d.built
