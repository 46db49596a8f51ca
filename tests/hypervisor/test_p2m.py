"""The hypervisor page table: mapping, invalidation, migration, observer."""

import pytest

from repro.errors import P2MError
from repro.hypervisor.p2m import P2MTable


@pytest.fixture
def p2m():
    return P2MTable(domain_id=3)


class TestMapping:
    def test_set_and_translate(self, p2m):
        p2m.set_entry(5, 500)
        assert p2m.translate(5) == 500
        assert p2m.mfn_if_valid(5) != -1

    def test_absent_entry_faults(self, p2m):
        with pytest.raises(P2MError):
            p2m.translate(5)
        assert p2m.mfn_if_valid(5) == -1

    def test_negative_frames_rejected(self, p2m):
        with pytest.raises(P2MError):
            p2m.set_entry(-1, 0)
        with pytest.raises(P2MError):
            p2m.set_entry(0, -1)

    def test_remap_via_set_entry(self, p2m):
        p2m.set_entry(5, 500)
        p2m.set_entry(5, 600)
        assert p2m.translate(5) == 600
        assert p2m.num_entries == 1


class TestInvalidation:
    def test_invalidate_returns_frame(self, p2m):
        p2m.set_entry(5, 500)
        assert p2m.invalidate(5) == 500
        assert p2m.mfn_if_valid(5) == -1
        with pytest.raises(P2MError):
            p2m.translate(5)

    def test_invalidate_absent_returns_none(self, p2m):
        assert p2m.invalidate(9) is None

    def test_double_invalidate_returns_none(self, p2m):
        p2m.set_entry(5, 500)
        p2m.invalidate(5)
        assert p2m.invalidate(5) is None
        assert p2m.invalidations == 1

    def test_revalidation_after_fault(self, p2m):
        """First-touch: invalidate, then the fault handler remaps."""
        p2m.set_entry(5, 500)
        p2m.invalidate(5)
        p2m.set_entry(5, 777)
        assert p2m.translate(5) == 777

    def test_counts(self, p2m):
        p2m.set_entry(1, 10)
        p2m.set_entry(2, 20)
        p2m.invalidate(1)
        assert p2m.num_entries == 2
        assert p2m.num_valid == 1


class TestMigration:
    def test_write_protect_then_remap(self, p2m):
        p2m.set_entry(5, 500)
        p2m.write_protect(5)
        assert not p2m.lookup(5).writable
        old = p2m.remap(5, 900)
        assert old == 500
        assert p2m.translate(5) == 900
        assert p2m.lookup(5).writable
        assert p2m.migrations == 1

    def test_remap_without_protection_rejected(self, p2m):
        p2m.set_entry(5, 500)
        with pytest.raises(P2MError, match="write-protected"):
            p2m.remap(5, 900)

    def test_unprotect_aborts_migration(self, p2m):
        p2m.set_entry(5, 500)
        p2m.write_protect(5)
        p2m.unprotect(5)
        assert p2m.lookup(5).writable
        assert p2m.translate(5) == 500

    def test_protect_invalid_entry_rejected(self, p2m):
        with pytest.raises(P2MError):
            p2m.write_protect(5)


class TestRemove:
    def test_remove_returns_frame(self, p2m):
        p2m.set_entry(5, 500)
        assert p2m.remove(5) == 500
        assert p2m.lookup(5) is None

    def test_remove_invalid_returns_none(self, p2m):
        p2m.set_entry(5, 500)
        p2m.invalidate(5)
        assert p2m.remove(5) is None


class _Observer:
    def __init__(self):
        self.events = []

    def entry_set(self, gpfn, mfn):
        self.events.append(("set", gpfn, mfn))

    def entry_invalidated(self, gpfn):
        self.events.append(("inv", gpfn))


class TestObserver:
    def test_set_and_invalidate_notify(self, p2m):
        obs = _Observer()
        p2m.observer = obs
        p2m.set_entry(1, 10)
        p2m.invalidate(1)
        assert obs.events == [("set", 1, 10), ("inv", 1)]

    def test_remap_notifies_new_frame(self, p2m):
        obs = _Observer()
        p2m.observer = obs
        p2m.set_entry(1, 10)
        p2m.write_protect(1)
        p2m.remap(1, 20)
        assert obs.events[-1] == ("set", 1, 20)

    def test_remove_notifies_invalidation(self, p2m):
        obs = _Observer()
        p2m.set_entry(1, 10)
        p2m.observer = obs
        p2m.remove(1)
        assert obs.events == [("inv", 1)]
