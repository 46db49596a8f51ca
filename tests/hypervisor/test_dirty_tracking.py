"""Dirty-page tracking primitives: batch protection, guest writes, pause."""

import numpy as np
import pytest

from repro.errors import DomainError, P2MError
from repro.hypervisor.p2m import P2MTable


@pytest.fixture
def p2m():
    table = P2MTable(domain_id=1)
    for gpfn in range(8):
        table.set_entry(gpfn, 100 + gpfn)
    return table


class TestBatchProtection:
    def test_protect_many_clears_writable(self, p2m):
        gpfns = np.array([0, 2, 4], dtype=np.int64)
        p2m.write_protect_many(gpfns)
        assert not p2m.writable_mask(gpfns).any()
        others = np.array([1, 3, 5], dtype=np.int64)
        assert p2m.writable_mask(others).all()

    def test_unprotect_many_restores_writable(self, p2m):
        gpfns = np.array([0, 2, 4], dtype=np.int64)
        p2m.write_protect_many(gpfns)
        p2m.unprotect_many(gpfns)
        assert p2m.writable_mask(gpfns).all()

    def test_protect_many_invalid_entry_rejected(self, p2m):
        with pytest.raises(P2MError):
            p2m.write_protect_many(np.array([0, 999], dtype=np.int64))

    def test_empty_batch_is_a_no_op(self, p2m):
        p2m.write_protect_many(np.empty(0, dtype=np.int64))
        p2m.unprotect_many(np.empty(0, dtype=np.int64))

    def test_is_writable_matches_mask(self, p2m):
        p2m.write_protect(3)
        assert not p2m.is_writable(3)
        assert p2m.is_writable(4)
        assert not p2m.is_writable(999)

    def test_valid_gpfns_lists_every_mapping(self, p2m):
        assert p2m.valid_gpfns().tolist() == list(range(8))
        p2m.invalidate(5)
        assert 5 not in p2m.valid_gpfns().tolist()


class TestGuestWrite:
    @pytest.fixture
    def domain(self, hypervisor_plus):
        return hypervisor_plus.create_domain(
            name="writer", num_vcpus=2, memory_pages=64
        )

    def test_write_to_writable_page_stamps_memory(self, hypervisor_plus, domain):
        gpfn = int(domain.p2m.valid_gpfns()[0])
        hypervisor_plus.guest_write(domain, 0, gpfn, stamp=7)
        assert domain.read_stamps(np.array([gpfn]))[0] == 7

    def test_protected_write_needs_a_handler(self, hypervisor_plus, domain):
        gpfn = int(domain.p2m.valid_gpfns()[0])
        domain.p2m.write_protect(gpfn)
        with pytest.raises(P2MError, match="handler"):
            hypervisor_plus.guest_write(domain, 0, gpfn, stamp=1)

    def test_handler_logs_and_unprotects(self, hypervisor_plus, domain):
        gpfn = int(domain.p2m.valid_gpfns()[0])
        domain.p2m.write_protect(gpfn)
        dirty = []

        def handler(fault_gpfn):
            dirty.append(fault_gpfn)
            domain.p2m.unprotect(fault_gpfn)

        hypervisor_plus.set_write_fault_handler(domain, handler)
        hypervisor_plus.guest_write(domain, 0, gpfn, stamp=3)
        assert dirty == [gpfn]
        assert domain.read_stamps(np.array([gpfn]))[0] == 3
        assert domain.p2m.is_writable(gpfn)

    def test_handler_leaving_page_protected_rejected(
        self, hypervisor_plus, domain
    ):
        gpfn = int(domain.p2m.valid_gpfns()[0])
        domain.p2m.write_protect(gpfn)
        hypervisor_plus.set_write_fault_handler(domain, lambda g: None)
        with pytest.raises(P2MError):
            hypervisor_plus.guest_write(domain, 0, gpfn, stamp=1)

    def test_paused_domain_rejects_writes(self, hypervisor_plus, domain):
        gpfn = int(domain.p2m.valid_gpfns()[0])
        hypervisor_plus.pause_domain(domain)
        with pytest.raises(DomainError):
            hypervisor_plus.guest_write(domain, 0, gpfn, stamp=1)

    def test_write_fault_counted(self, hypervisor_plus, domain):
        gpfn = int(domain.p2m.valid_gpfns()[0])
        domain.p2m.write_protect(gpfn)
        hypervisor_plus.set_write_fault_handler(
            domain, lambda g: domain.p2m.unprotect(g)
        )
        before = hypervisor_plus.fault_handler.stats.write_protection_faults
        hypervisor_plus.guest_write(domain, 0, gpfn, stamp=1)
        after = hypervisor_plus.fault_handler.stats.write_protection_faults
        assert after == before + 1

    def test_clear_handler(self, hypervisor_plus, domain):
        gpfn = int(domain.p2m.valid_gpfns()[0])
        domain.p2m.write_protect(gpfn)
        hypervisor_plus.set_write_fault_handler(
            domain, lambda g: domain.p2m.unprotect(g)
        )
        hypervisor_plus.clear_write_fault_handler(domain)
        with pytest.raises(P2MError):
            hypervisor_plus.guest_write(domain, 0, gpfn, stamp=1)


class TestMemoryImage:
    @pytest.fixture
    def domain(self, hypervisor_plus):
        return hypervisor_plus.create_domain(
            name="image", num_vcpus=1, memory_pages=32
        )

    def test_unwritten_pages_read_zero(self, domain):
        gpfns = domain.p2m.valid_gpfns()[:4]
        assert (domain.read_stamps(gpfns) == 0).all()

    def test_copy_stamps_between_domains(self, hypervisor_plus, domain):
        other = hypervisor_plus.create_domain(
            name="peer", num_vcpus=1, memory_pages=32
        )
        gpfns = domain.p2m.valid_gpfns()[:4]
        for i, gpfn in enumerate(gpfns.tolist()):
            domain.write_stamp(gpfn, i + 1)
        other.copy_stamps_from(domain, gpfns)
        assert np.array_equal(
            other.read_stamps(gpfns), domain.read_stamps(gpfns)
        )
