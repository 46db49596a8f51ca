"""The hypervisor page table (p2m): guest-physical -> machine mapping.

Xen isolates each virtual machine's memory with a per-domain hardware page
table mapping the domain's *physical* (guest-physical) frames to *machine*
frames (paper section 2.1). This table is the lever of every NUMA policy in
the paper (section 4.1):

* a policy *places* a guest page on a node by mapping its gpfn to an mfn of
  that node;
* first-touch *traps* the first access to a page by leaving/making the
  entry invalid, so the access raises a hypervisor page fault;
* Carrefour *migrates* a page by write-protecting the entry, copying the
  frame, then remapping.

Like a real page table — and unlike the dict-of-objects backend this
replaced (kept as the test-only oracle ``tests/properties/p2m_oracle.py``)
— the table is contiguous array state: parallel ``mfn``/``flags``/``node``
arrays indexed by gpfn, with maintained entry/valid counts. The scalar
method API is unchanged; ``set_entries``/``invalidate_many``/
``translate_many`` operate on whole gpfn arrays. An attached sanitizer
checks a batch in place through its batch hooks: a trap raises the
message the per-entry loop would raise first and leaves the table
unchanged. Only duplicate gpfns send a batch through the per-entry loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.errors import P2MError

#: Flag bits of the packed ``flags`` array. PRESENT distinguishes "never
#: populated / removed" from "populated but invalid" (the first-touch
#: trap state, which keeps PRESENT).
PRESENT = 1
VALID = 2
WRITABLE = 4

_GpfnArray = Union[Sequence[int], np.ndarray]


@dataclass
class P2MEntry:
    """One hypervisor page table entry (plain-record form).

    The array backend hands out live :class:`P2MEntryView` objects with
    the same attributes; this dataclass remains the storage of the
    dict-backed test oracle and the documented shape of an entry.

    Attributes:
        mfn: backing machine frame.
        valid: invalid entries fault on access (first-touch trap).
        writable: cleared during migration to freeze the page content.
    """

    mfn: int
    valid: bool = True
    writable: bool = True


class P2MEntryView:
    """Live view of one array-backed entry.

    Attribute-compatible with :class:`P2MEntry`; reads and writes go
    straight to the table's arrays (the sanitizer tests flip ``writable``
    through this view to forge out-of-order migrations).
    """

    __slots__ = ("_table", "_gpfn")

    def __init__(self, table: "P2MTable", gpfn: int):
        self._table = table
        self._gpfn = gpfn

    @property
    def mfn(self) -> int:
        return int(self._table._mfn[self._gpfn])

    @mfn.setter
    def mfn(self, value: int) -> None:
        self._table._mfn[self._gpfn] = value
        self._table._sync_node(self._gpfn)

    @property
    def valid(self) -> bool:
        return bool(self._table._flags[self._gpfn] & VALID)

    @valid.setter
    def valid(self, value: bool) -> None:
        flags = int(self._table._flags[self._gpfn])
        if bool(flags & VALID) == bool(value):
            return
        self._table._flags[self._gpfn] = flags ^ VALID
        self._table._num_valid += 1 if value else -1

    @property
    def writable(self) -> bool:
        return bool(self._table._flags[self._gpfn] & WRITABLE)

    @writable.setter
    def writable(self, value: bool) -> None:
        flags = int(self._table._flags[self._gpfn])
        if value:
            self._table._flags[self._gpfn] = flags | WRITABLE
        else:
            self._table._flags[self._gpfn] = flags & ~WRITABLE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"P2MEntryView(gpfn={self._gpfn}, mfn={self.mfn}, "
            f"valid={self.valid}, writable={self.writable})"
        )


class P2MTable:
    """Per-domain guest-physical to machine frame mapping.

    The table is sparse: a gpfn without an entry has never been populated.
    An entry can also exist but be *invalid* — the distinction matters for
    first-touch, which invalidates entries of released pages while the
    guest still considers those gpfns part of its physical memory.

    Args:
        domain_id: owning domain.
        capacity: initial gpfn capacity hint (the arrays grow
            geometrically past it on demand).
    """

    def __init__(self, domain_id: int, capacity: int = 1024):
        self.domain_id = domain_id
        cap = max(int(capacity), 1)
        self._mfn = np.full(cap, -1, dtype=np.int64)
        self._flags = np.zeros(cap, dtype=np.uint8)
        self._node = np.full(cap, -1, dtype=np.int32)
        self._num_entries = 0
        self._num_valid = 0
        # Statistics used by the experiments — attribute views over
        # metric cells registered with the active observability session.
        reg = obs.registry()
        self._faults_taken = reg.counter("p2m.faults_taken", domain=domain_id)
        self._invalidations = reg.counter("p2m.invalidations", domain=domain_id)
        self._migrations = reg.counter("p2m.migrations", domain=domain_id)
        #: Optional observer notified of mapping changes; the simulation
        #: engine uses it to keep page->node placement views in sync.
        #: Must provide ``entry_set(gpfn, mfn)`` and ``entry_invalidated(gpfn)``;
        #: batch mutations use ``entries_set(gpfns, mfns)`` /
        #: ``entries_invalidated(gpfns)`` when the observer has them.
        self.observer: Optional[object] = None
        #: Optional :class:`repro.lint.sanitizer.P2MSanitizer`; checked
        #: before every mutation so a trapped violation leaves the table
        #: unchanged. Attached by the hypervisor when sanitizing.
        self.sanitizer: Optional[object] = None
        #: When the hypervisor sets this, the ``node`` array mirrors
        #: ``mfn // frames_per_node`` so placement consumers can read
        #: page nodes without translating frame by frame.
        self.frames_per_node: Optional[int] = None

    # ------------------------------------------------------------------
    # Array plumbing

    def _ensure(self, gpfn: int) -> None:
        cap = self._mfn.size
        if gpfn < cap:
            return
        new_cap = max(cap * 2, gpfn + 1)
        for name, fill in (("_mfn", -1), ("_flags", 0), ("_node", -1)):
            old = getattr(self, name)
            grown = np.full(new_cap, fill, dtype=old.dtype)
            grown[:cap] = old
            setattr(self, name, grown)

    def _sync_node(self, gpfn: int) -> None:
        mfn = int(self._mfn[gpfn])
        if self.frames_per_node is not None and mfn >= 0:
            self._node[gpfn] = mfn // self.frames_per_node
        else:
            self._node[gpfn] = -1

    # ------------------------------------------------------------------
    # Population

    def set_entry(self, gpfn: int, mfn: int, writable: bool = True) -> None:
        """Map ``gpfn`` to ``mfn`` (creating or revalidating the entry)."""
        if gpfn < 0 or mfn < 0:
            raise P2MError("frame numbers must be non-negative")
        if self.sanitizer is not None:
            self.sanitizer.entry_set(self.domain_id, gpfn, mfn)
        self._ensure(gpfn)
        flags = int(self._flags[gpfn])
        if not flags & PRESENT:
            self._num_entries += 1
        if not flags & VALID:
            self._num_valid += 1
        self._flags[gpfn] = PRESENT | VALID | (WRITABLE if writable else 0)
        self._mfn[gpfn] = mfn
        self._sync_node(gpfn)
        if self.observer is not None:
            self.observer.entry_set(gpfn, mfn)

    def invalidate(self, gpfn: int) -> Optional[int]:
        """Invalidate the entry for ``gpfn``; next access faults.

        Returns the machine frame that was backing the page (so the caller
        can return it to the heap), or None if the entry was absent or
        already invalid.
        """
        if gpfn < 0 or gpfn >= self._mfn.size:
            return None
        flags = int(self._flags[gpfn])
        if not flags & VALID:
            return None
        self._flags[gpfn] = flags & ~VALID
        self._num_valid -= 1
        self.invalidations += 1
        mfn = int(self._mfn[gpfn])
        self._mfn[gpfn] = -1
        self._node[gpfn] = -1
        if self.sanitizer is not None:
            self.sanitizer.entry_invalidated(self.domain_id, gpfn)
        if self.observer is not None:
            self.observer.entry_invalidated(gpfn)
        return mfn

    def remove(self, gpfn: int) -> Optional[int]:
        """Drop the entry entirely (domain teardown). Returns the mfn if valid."""
        if gpfn < 0 or gpfn >= self._mfn.size:
            return None
        flags = int(self._flags[gpfn])
        if not flags & PRESENT:
            return None
        self._num_entries -= 1
        mfn = int(self._mfn[gpfn])
        self._flags[gpfn] = 0
        self._mfn[gpfn] = -1
        self._node[gpfn] = -1
        if not flags & VALID:
            return None
        self._num_valid -= 1
        if self.sanitizer is not None:
            self.sanitizer.entry_invalidated(self.domain_id, gpfn)
        if self.observer is not None:
            self.observer.entry_invalidated(gpfn)
        return mfn

    # ------------------------------------------------------------------
    # Batch population (the vectorized page path)

    def set_entries(
        self, gpfns: _GpfnArray, mfns: _GpfnArray, writable: bool = True
    ) -> None:
        """Map each ``gpfns[i]`` to ``mfns[i]`` in one array operation.

        Equivalent to calling :meth:`set_entry` per pair, except that
        validation — argument checks, then the sanitizer — is
        all-or-nothing and the observer sees one batch notification.
        Duplicate gpfns take the per-pair loop.
        """
        gpfns = np.asarray(gpfns, dtype=np.int64)
        mfns = np.asarray(mfns, dtype=np.int64)
        if gpfns.shape != mfns.shape:
            raise P2MError("set_entries needs matching gpfn/mfn arrays")
        if gpfns.size == 0:
            return
        if np.unique(gpfns).size != gpfns.size:
            for gpfn, mfn in zip(gpfns.tolist(), mfns.tolist()):
                self.set_entry(gpfn, mfn, writable)
            return
        if int(gpfns.min()) < 0 or int(mfns.min()) < 0:
            raise P2MError("frame numbers must be non-negative")
        if self.sanitizer is not None:
            self.sanitizer.entries_set(
                self.domain_id, gpfns.tolist(), mfns.tolist()
            )
        self._ensure(int(gpfns.max()))
        flags = self._flags[gpfns]
        self._num_entries += int(np.count_nonzero((flags & PRESENT) == 0))
        self._num_valid += int(np.count_nonzero((flags & VALID) == 0))
        self._flags[gpfns] = PRESENT | VALID | (WRITABLE if writable else 0)
        self._mfn[gpfns] = mfns
        if self.frames_per_node is not None:
            self._node[gpfns] = mfns // self.frames_per_node
        else:
            self._node[gpfns] = -1
        observer = self.observer
        if observer is not None:
            batch_hook = getattr(observer, "entries_set", None)
            if batch_hook is not None:
                batch_hook(gpfns, mfns)
            else:
                for gpfn, mfn in zip(gpfns.tolist(), mfns.tolist()):
                    observer.entry_set(gpfn, mfn)

    def invalidate_many(
        self, gpfns: _GpfnArray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Invalidate every valid entry among ``gpfns``.

        Returns ``(invalidated_gpfns, mfns)`` in input order — exactly the
        pairs a per-gpfn :meth:`invalidate` loop would have returned, with
        absent/invalid entries skipped.
        """
        gpfns = np.asarray(gpfns, dtype=np.int64)
        if gpfns.size and np.unique(gpfns).size != gpfns.size:
            hit_gpfns, hit_mfns = [], []
            for gpfn in gpfns.tolist():
                mfn = self.invalidate(gpfn)
                if mfn is not None:
                    hit_gpfns.append(gpfn)
                    hit_mfns.append(mfn)
            return (
                np.asarray(hit_gpfns, dtype=np.int64),
                np.asarray(hit_mfns, dtype=np.int64),
            )
        in_range = (gpfns >= 0) & (gpfns < self._mfn.size)
        sel = gpfns[in_range]
        sel = sel[(self._flags[sel] & VALID) != 0]
        if sel.size == 0:
            return sel, np.empty(0, dtype=np.int64)
        mfns = self._mfn[sel].copy()
        self._flags[sel] &= np.uint8(0xFF ^ VALID)
        self._mfn[sel] = -1
        self._node[sel] = -1
        self._num_valid -= int(sel.size)
        self.invalidations += int(sel.size)
        if self.sanitizer is not None:
            self.sanitizer.entries_invalidated(self.domain_id, sel.tolist())
        observer = self.observer
        if observer is not None:
            batch_hook = getattr(observer, "entries_invalidated", None)
            if batch_hook is not None:
                batch_hook(sel)
            else:
                for gpfn in sel.tolist():
                    observer.entry_invalidated(gpfn)
        return sel, mfns

    def remove_many(self, gpfns: _GpfnArray) -> np.ndarray:
        """Bulk :meth:`remove`; returns the mfns of entries that were valid.

        The returned mfns keep input order, exactly the non-None results
        a per-gpfn remove loop would have produced (domain teardown frees
        them wholesale).
        """
        gpfns = np.asarray(gpfns, dtype=np.int64)
        if gpfns.size and np.unique(gpfns).size != gpfns.size:
            mfns = [
                mfn
                for mfn in (self.remove(gpfn) for gpfn in gpfns.tolist())
                if mfn is not None
            ]
            return np.asarray(mfns, dtype=np.int64)
        in_range = (gpfns >= 0) & (gpfns < self._mfn.size)
        sel = gpfns[in_range]
        flags = self._flags[sel]
        present = sel[(flags & PRESENT) != 0]
        valid = sel[(flags & VALID) != 0]
        mfns = self._mfn[valid].copy()
        self._num_entries -= int(present.size)
        self._num_valid -= int(valid.size)
        self._flags[present] = 0
        self._mfn[present] = -1
        self._node[present] = -1
        if self.sanitizer is not None:
            self.sanitizer.entries_invalidated(self.domain_id, valid.tolist())
        observer = self.observer
        if observer is not None and valid.size:
            batch_hook = getattr(observer, "entries_invalidated", None)
            if batch_hook is not None:
                batch_hook(valid)
            else:
                for gpfn in valid.tolist():
                    observer.entry_invalidated(gpfn)
        return mfns

    # ------------------------------------------------------------------
    # Lookup

    def lookup(self, gpfn: int) -> Optional[P2MEntryView]:
        """The raw entry for ``gpfn`` (None if never populated)."""
        if gpfn < 0 or gpfn >= self._mfn.size:
            return None
        if not self._flags[gpfn] & PRESENT:
            return None
        return P2MEntryView(self, gpfn)

    def translate(self, gpfn: int) -> int:
        """CPU-side translation; raises :class:`P2MError` on invalid entries.

        The hypervisor fault path catches that error and hands the fault to
        the domain's NUMA policy.
        """
        if gpfn < 0 or gpfn >= self._mfn.size or not self._flags[gpfn] & VALID:
            raise P2MError(f"invalid p2m entry for gpfn {gpfn:#x}")
        return int(self._mfn[gpfn])

    def translate_many(self, gpfns: _GpfnArray) -> np.ndarray:
        """Translate a whole gpfn array; raises on the first invalid one."""
        gpfns = np.asarray(gpfns, dtype=np.int64)
        if gpfns.size == 0:
            return np.empty(0, dtype=np.int64)
        in_range = (gpfns >= 0) & (gpfns < self._mfn.size)
        valid = np.zeros(gpfns.shape, dtype=bool)
        valid[in_range] = (self._flags[gpfns[in_range]] & VALID) != 0
        if not valid.all():
            bad = int(gpfns[np.argmin(valid)])
            raise P2MError(f"invalid p2m entry for gpfn {bad:#x}")
        return self._mfn[gpfns].copy()

    def mfn_if_valid(self, gpfn: int) -> int:
        """The backing mfn, or -1 when the access would fault.

        The hypervisor fault path uses this instead of :meth:`lookup` to
        avoid materialising a view per guest access.
        """
        if gpfn < 0 or gpfn >= self._mfn.size or not self._flags[gpfn] & VALID:
            return -1
        return int(self._mfn[gpfn])

    def mfns_if_valid(self, gpfns: _GpfnArray) -> np.ndarray:
        """Batch :meth:`mfn_if_valid`: backing mfn per gpfn, -1 where faulting.

        Unlike :meth:`translate_many` this never raises — the batch init
        path uses it to split a segment into its translating and faulting
        subsets.
        """
        gpfns = np.asarray(gpfns, dtype=np.int64)
        out = np.full(gpfns.shape, -1, dtype=np.int64)
        in_range = (gpfns >= 0) & (gpfns < self._mfn.size)
        sel = gpfns[in_range]
        out[in_range] = np.where(
            (self._flags[sel] & VALID) != 0, self._mfn[sel], -1
        )
        return out

    def is_valid(self, gpfn: int) -> bool:
        """True if ``gpfn`` currently translates without faulting."""
        return bool(
            0 <= gpfn < self._mfn.size and self._flags[gpfn] & VALID
        )

    def is_writable(self, gpfn: int) -> bool:
        """True if a guest write to ``gpfn`` would not trap."""
        both = VALID | WRITABLE
        return bool(
            0 <= gpfn < self._mfn.size and (self._flags[gpfn] & both) == both
        )

    def nodes_of(self, gpfns: _GpfnArray) -> np.ndarray:
        """Node of each gpfn's backing frame (-1 where invalid).

        Requires :attr:`frames_per_node` to have been set by the
        hypervisor; the Carrefour decision path reads placements this way
        instead of translating page by page.
        """
        if self.frames_per_node is None:
            raise P2MError("nodes_of requires frames_per_node to be set")
        gpfns = np.asarray(gpfns, dtype=np.int64)
        nodes = np.full(gpfns.shape, -1, dtype=np.int32)
        in_range = (gpfns >= 0) & (gpfns < self._mfn.size)
        nodes[in_range] = self._node[gpfns[in_range]]
        return nodes

    # ------------------------------------------------------------------
    # Migration support (internal interface, paper section 4.1)

    def write_protect(self, gpfn: int) -> None:
        """Clear the writable bit so concurrent guest writes trap."""
        self._require_valid(gpfn)
        if self.sanitizer is not None:
            self.sanitizer.entry_write_protected(self.domain_id, gpfn)
        self._flags[gpfn] = int(self._flags[gpfn]) & ~WRITABLE

    def remap(self, gpfn: int, new_mfn: int) -> int:
        """Point a write-protected entry at ``new_mfn``; restore writability.

        Returns the old machine frame (to be freed by the caller).
        """
        self._require_valid(gpfn)
        flags = int(self._flags[gpfn])
        if flags & WRITABLE:
            raise P2MError("remap requires a write-protected entry")
        old = int(self._mfn[gpfn])
        if self.sanitizer is not None:
            self.sanitizer.entry_remapped(self.domain_id, gpfn, old, new_mfn)
        self._mfn[gpfn] = new_mfn
        self._sync_node(gpfn)
        self._flags[gpfn] = flags | WRITABLE
        self.migrations += 1
        if self.observer is not None:
            self.observer.entry_set(gpfn, new_mfn)
        return old

    def unprotect(self, gpfn: int) -> None:
        """Abort a migration: restore writability without remapping."""
        self._require_valid(gpfn)
        if self.sanitizer is not None:
            self.sanitizer.entry_unprotected(self.domain_id, gpfn)
        self._flags[gpfn] = int(self._flags[gpfn]) | WRITABLE

    def write_protect_many(self, gpfns: _GpfnArray) -> None:
        """Clear the writable bit of every ``gpfns`` entry in one operation.

        Pre-copy live migration protects a whole copy round's pages this
        way. Equivalent to a per-gpfn :meth:`write_protect` loop, except
        that it is all-or-nothing: every entry must be valid (raises on
        the first that is not), then the sanitizer checks the batch.
        Duplicate gpfns take the per-gpfn loop.
        """
        gpfns = np.asarray(gpfns, dtype=np.int64)
        if gpfns.size == 0:
            return
        if np.unique(gpfns).size != gpfns.size:
            for gpfn in gpfns.tolist():
                self.write_protect(gpfn)
            return
        self._require_valid_many(gpfns)
        if self.sanitizer is not None:
            self.sanitizer.entries_write_protected(
                self.domain_id, gpfns.tolist()
            )
        self._flags[gpfns] &= np.uint8(0xFF ^ WRITABLE)

    def unprotect_many(self, gpfns: _GpfnArray) -> None:
        """Restore writability of every ``gpfns`` entry in one operation.

        The stop-and-copy cutover releases the final round's protections
        with this. Same contract as :meth:`write_protect_many`: per-gpfn
        :meth:`unprotect` semantics, all-or-nothing, the per-gpfn loop
        for duplicates.
        """
        gpfns = np.asarray(gpfns, dtype=np.int64)
        if gpfns.size == 0:
            return
        if np.unique(gpfns).size != gpfns.size:
            for gpfn in gpfns.tolist():
                self.unprotect(gpfn)
            return
        self._require_valid_many(gpfns)
        if self.sanitizer is not None:
            self.sanitizer.entries_unprotected(self.domain_id, gpfns.tolist())
        self._flags[gpfns] |= np.uint8(WRITABLE)

    def writable_mask(self, gpfns: _GpfnArray) -> np.ndarray:
        """Boolean mask: True where the entry is valid *and* writable.

        Migration rounds use this to find pages the guest dirtied (the
        dirty-fault handler restores writability, so a writable page in a
        protected set is by definition dirty).
        """
        gpfns = np.asarray(gpfns, dtype=np.int64)
        out = np.zeros(gpfns.shape, dtype=bool)
        in_range = (gpfns >= 0) & (gpfns < self._mfn.size)
        sel = gpfns[in_range]
        both = VALID | WRITABLE
        out[in_range] = (self._flags[sel] & both) == both
        return out

    # ------------------------------------------------------------------
    # Introspection

    def valid_entries(self) -> Iterator[Tuple[int, P2MEntryView]]:
        """Iterate (gpfn, entry) over valid entries."""
        for gpfn in np.nonzero(self._flags & VALID)[0].tolist():
            yield gpfn, P2MEntryView(self, gpfn)

    def valid_gpfns(self) -> np.ndarray:
        """All currently valid gpfns, ascending (a fresh array).

        Live migration's round 1 copies exactly this set — the domain's
        resident pages.
        """
        return np.nonzero((self._flags & VALID) != 0)[0].astype(np.int64)

    @property
    def faults_taken(self) -> int:
        """Hypervisor faults resolved against this table."""
        return self._faults_taken.value

    @faults_taken.setter
    def faults_taken(self, value: int) -> None:
        self._faults_taken.value = value

    @property
    def invalidations(self) -> int:
        """Entries invalidated (released pages, first-touch traps)."""
        return self._invalidations.value

    @invalidations.setter
    def invalidations(self, value: int) -> None:
        self._invalidations.value = value

    @property
    def migrations(self) -> int:
        """Pages remapped by the migration protocol."""
        return self._migrations.value

    @migrations.setter
    def migrations(self, value: int) -> None:
        self._migrations.value = value

    @property
    def num_entries(self) -> int:
        """Total entries, valid or not (maintained, not scanned)."""
        return self._num_entries

    @property
    def num_valid(self) -> int:
        """Valid (translatable) entries (maintained, not scanned)."""
        return self._num_valid

    def _require_valid(self, gpfn: int) -> None:
        if gpfn < 0 or gpfn >= self._mfn.size or not self._flags[gpfn] & VALID:
            raise P2MError(f"gpfn {gpfn:#x} has no valid entry")

    def _require_valid_many(self, gpfns: np.ndarray) -> None:
        in_range = (gpfns >= 0) & (gpfns < self._mfn.size)
        valid = np.zeros(gpfns.shape, dtype=bool)
        valid[in_range] = (self._flags[gpfns[in_range]] & VALID) != 0
        if not valid.all():
            bad = int(gpfns[np.argmin(valid)])
            raise P2MError(f"gpfn {bad:#x} has no valid entry")
