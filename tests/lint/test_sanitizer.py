"""The runtime P2M sanitizer catches every dynamic protocol violation."""

import pytest

from repro.errors import SanitizerError
from repro.hardware.memory import MachineMemory
from repro.hypervisor.p2m import P2MTable
from repro.hypervisor.xen import Hypervisor
from repro.lint import sanitizer as p2m_sanitizer
from repro.lint.sanitizer import P2MSanitizer

from tests.conftest import small_machine


@pytest.fixture
def world():
    """A sanitized two-node memory + two p2m tables, wired by hand."""
    sanitizer = P2MSanitizer()
    memory = MachineMemory(num_nodes=2, frames_per_node=64, controller_gib_s=10.0)
    memory.sanitizer = sanitizer
    p2m_a, p2m_b = P2MTable(1), P2MTable(2)
    p2m_a.sanitizer = sanitizer
    p2m_b.sanitizer = sanitizer
    return sanitizer, memory, p2m_a, p2m_b


class TestDoubleMap:
    def test_same_frame_two_domains(self, world):
        _, memory, p2m_a, p2m_b = world
        mfn = memory.alloc_frames(0)
        p2m_a.set_entry(0, mfn)
        with pytest.raises(SanitizerError, match="double map"):
            p2m_b.set_entry(0, mfn)

    def test_same_frame_two_gpfns(self, world):
        _, memory, p2m_a, _ = world
        mfn = memory.alloc_frames(0)
        p2m_a.set_entry(0, mfn)
        with pytest.raises(SanitizerError, match="double map"):
            p2m_a.set_entry(1, mfn)

    def test_idempotent_set_entry_allowed(self, world):
        _, memory, p2m_a, _ = world
        mfn = memory.alloc_frames(0)
        p2m_a.set_entry(0, mfn)
        p2m_a.set_entry(0, mfn)

    def test_overwrite_leaks_old_frame(self, world):
        _, memory, p2m_a, _ = world
        first, second = memory.alloc_frames(0), memory.alloc_frames(0)
        p2m_a.set_entry(0, first)
        with pytest.raises(SanitizerError, match="leak"):
            p2m_a.set_entry(0, second)


class TestFrameLifetime:
    def test_map_of_freed_frame(self, world):
        _, memory, p2m_a, _ = world
        mfn = memory.alloc_frames(0)
        memory.free_frames(mfn, 1)
        with pytest.raises(SanitizerError, match="not allocated"):
            p2m_a.set_entry(0, mfn)

    def test_map_of_never_allocated_frame(self, world):
        _, _, p2m_a, _ = world
        with pytest.raises(SanitizerError, match="not allocated"):
            p2m_a.set_entry(0, 7)

    def test_free_of_mapped_frame(self, world):
        _, memory, p2m_a, _ = world
        mfn = memory.alloc_frames(0)
        p2m_a.set_entry(0, mfn)
        with pytest.raises(SanitizerError, match="still mapped"):
            memory.free_frames(mfn, 1)

    def test_invalidate_then_free_is_legal(self, world):
        _, memory, p2m_a, _ = world
        mfn = memory.alloc_frames(0)
        p2m_a.set_entry(0, mfn)
        assert p2m_a.invalidate(0) == mfn
        memory.free_frames(mfn, 1)


class TestMigrationOrdering:
    def _mapped(self, memory, p2m, gpfn=0, node=0):
        mfn = memory.alloc_frames(node)
        p2m.set_entry(gpfn, mfn)
        return mfn

    def test_legit_migration_passes(self, world):
        _, memory, p2m_a, _ = world
        old = self._mapped(memory, p2m_a)
        new = memory.alloc_frames(1)
        p2m_a.write_protect(0)
        assert p2m_a.remap(0, new) == old
        memory.free_frames(old, 1)

    def test_remap_without_write_protect(self, world):
        _, memory, p2m_a, _ = world
        self._mapped(memory, p2m_a)
        new = memory.alloc_frames(1)
        # Simulate a buggy migration that skips write_protect by flipping
        # the bit directly (so the p2m's own precondition check passes).
        p2m_a.lookup(0).writable = False
        with pytest.raises(SanitizerError, match="out-of-order"):
            p2m_a.remap(0, new)

    def test_double_write_protect(self, world):
        _, memory, p2m_a, _ = world
        self._mapped(memory, p2m_a)
        p2m_a.write_protect(0)
        with pytest.raises(SanitizerError, match="already in flight"):
            p2m_a.write_protect(0)

    def test_set_entry_during_migration(self, world):
        _, memory, p2m_a, _ = world
        mfn = self._mapped(memory, p2m_a)
        p2m_a.write_protect(0)
        with pytest.raises(SanitizerError, match="in-flight migration"):
            p2m_a.set_entry(0, mfn)

    def test_unprotect_aborts_migration(self, world):
        _, memory, p2m_a, _ = world
        mfn = self._mapped(memory, p2m_a)
        p2m_a.write_protect(0)
        p2m_a.unprotect(0)
        p2m_a.set_entry(0, mfn)  # entry usable again

    def test_unprotect_without_protect(self, world):
        _, memory, p2m_a, _ = world
        self._mapped(memory, p2m_a)
        with pytest.raises(SanitizerError, match="never write-protected"):
            p2m_a.unprotect(0)

    def test_remap_onto_foreign_frame(self, world):
        _, memory, p2m_a, p2m_b = world
        self._mapped(memory, p2m_a, gpfn=0)
        theirs = self._mapped(memory, p2m_b, gpfn=0, node=1)
        p2m_a.write_protect(0)
        with pytest.raises(SanitizerError, match="double map"):
            p2m_a.remap(0, theirs)


class TestHypervisorIntegration:
    def test_hypervisor_gets_sanitizer_from_global_enable(self, hypervisor):
        # tests/conftest.py arms the sanitizer for the whole suite.
        assert hypervisor.sanitizer is not None
        assert hypervisor.machine.memory.sanitizer is hypervisor.sanitizer
        assert hypervisor.dom0.p2m.sanitizer is hypervisor.sanitizer

    def test_switch_arms_hypervisors_created_after_it(self):
        """``enable()`` is the one switch, both ways: it decides whether
        each hypervisor booted afterwards gets a sanitizer."""
        p2m_sanitizer.enable(False)
        try:
            hyp_off = Hypervisor(small_machine())
        finally:
            p2m_sanitizer.enable()
        hyp_on = Hypervisor(small_machine())
        assert hyp_off.sanitizer is None
        assert hyp_off.machine.memory.sanitizer is None
        assert hyp_on.sanitizer is not None

    def test_interface_migration_passes_sanitized(self, hypervisor):
        domain = hypervisor.create_domain("vm", num_vcpus=1, memory_pages=16)
        target = 0 if hypervisor.internal.nodes_of_gpfns(domain, [3])[0] else 1
        assert hypervisor.internal.migrate_page(domain, 3, target)
        assert hypervisor.internal.nodes_of_gpfns(domain, [3]).tolist() == [target]

    def test_broken_migration_ordering_trapped(self, hypervisor):
        """Regression: a remap that skips write_protect must raise."""
        domain = hypervisor.create_domain("vm", num_vcpus=1, memory_pages=16)
        entry = domain.p2m.lookup(3)
        src = hypervisor.machine.node_of_frame(entry.mfn)
        new_mfn = hypervisor.machine.memory.alloc_frames((src + 1) % 4, 1)
        entry.writable = False  # buggy code path: protocol step skipped
        with pytest.raises(SanitizerError, match="out-of-order"):
            domain.p2m.remap(3, new_mfn)

    def test_forged_write_protection_fault_trapped(self, hypervisor):
        """Regression: accounting a write fault against an entry the
        migration protocol never write-protected must raise.

        The fault handler's own precondition (entry not writable) is
        satisfied here because the bit was flipped straight through the
        entry view — only the sanitizer's protocol shadow catches it.
        """
        domain = hypervisor.create_domain("vm", num_vcpus=1, memory_pages=16)
        domain.p2m.lookup(3).writable = False  # forged, not write_protect()
        with pytest.raises(SanitizerError, match="no migration in flight"):
            hypervisor.fault_handler.on_write_protected(domain, 3)

    def test_genuine_write_protection_fault_passes(self, hypervisor):
        domain = hypervisor.create_domain("vm", num_vcpus=1, memory_pages=16)
        domain.p2m.write_protect(3)
        hypervisor.fault_handler.on_write_protected(domain, 3)
        assert hypervisor.fault_handler.stats.write_protection_faults == 1

    def test_domain_teardown_is_clean(self, hypervisor):
        domain = hypervisor.create_domain("vm", num_vcpus=1, memory_pages=16)
        hypervisor.destroy_domain(domain)  # remove-then-free must not trap
