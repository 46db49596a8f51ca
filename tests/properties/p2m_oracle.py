"""Dict-of-objects p2m table: the test oracle of the array-backed one.

This is the page table :class:`repro.hypervisor.p2m.P2MTable` replaced
when the page path became array state, kept method for method so the
property tests in :mod:`tests.properties.test_page_path_parity` can
require the array table to return the same values, raise the same
errors and end in the same state. Its batch methods are plain loops over
the scalar ones: they *define* the semantics of the array batch ops,
including the order in which sanitizer traps fire. It is test-only:
nothing in ``src/`` can reach it.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import P2MError

_GpfnArray = Union[Sequence[int], np.ndarray]


@dataclass
class P2MEntry:
    """One page table entry as a plain record, with the attributes of the
    array table's :class:`repro.hypervisor.p2m.P2MEntryView`."""

    mfn: int
    valid: bool = True
    writable: bool = True


class DictP2MTable:
    """The original dict-of-objects p2m, plus loop-based batch methods."""

    def __init__(self, domain_id: int, capacity: int = 1024):
        self.domain_id = domain_id
        del capacity  # the dict backend has no arrays to pre-size
        self._entries: Dict[int, P2MEntry] = {}
        self.faults_taken = 0
        self.invalidations = 0
        self.migrations = 0
        self.observer: Optional[object] = None
        self.sanitizer: Optional[object] = None
        self.frames_per_node: Optional[int] = None

    # ------------------------------------------------------------- scalar

    def set_entry(self, gpfn: int, mfn: int, writable: bool = True) -> None:
        if gpfn < 0 or mfn < 0:
            raise P2MError("frame numbers must be non-negative")
        if self.sanitizer is not None:
            self.sanitizer.entry_set(self.domain_id, gpfn, mfn)
        self._entries[gpfn] = P2MEntry(mfn=mfn, valid=True, writable=writable)
        if self.observer is not None:
            self.observer.entry_set(gpfn, mfn)

    def invalidate(self, gpfn: int) -> Optional[int]:
        entry = self._entries.get(gpfn)
        if entry is None or not entry.valid:
            return None
        entry.valid = False
        self.invalidations += 1
        mfn, entry.mfn = entry.mfn, -1
        if self.sanitizer is not None:
            self.sanitizer.entry_invalidated(self.domain_id, gpfn)
        if self.observer is not None:
            self.observer.entry_invalidated(gpfn)
        return mfn

    def remove(self, gpfn: int) -> Optional[int]:
        entry = self._entries.pop(gpfn, None)
        if entry is None or not entry.valid:
            return None
        if self.sanitizer is not None:
            self.sanitizer.entry_invalidated(self.domain_id, gpfn)
        if self.observer is not None:
            self.observer.entry_invalidated(gpfn)
        return entry.mfn

    def lookup(self, gpfn: int) -> Optional[P2MEntry]:
        return self._entries.get(gpfn)

    def translate(self, gpfn: int) -> int:
        entry = self._entries.get(gpfn)
        if entry is None or not entry.valid:
            raise P2MError(f"invalid p2m entry for gpfn {gpfn:#x}")
        return entry.mfn

    def mfn_if_valid(self, gpfn: int) -> int:
        entry = self._entries.get(gpfn)
        if entry is None or not entry.valid:
            return -1
        return entry.mfn

    def write_protect(self, gpfn: int) -> None:
        entry = self._require_valid(gpfn)
        if self.sanitizer is not None:
            self.sanitizer.entry_write_protected(self.domain_id, gpfn)
        entry.writable = False

    def remap(self, gpfn: int, new_mfn: int) -> int:
        entry = self._require_valid(gpfn)
        if entry.writable:
            raise P2MError("remap requires a write-protected entry")
        if self.sanitizer is not None:
            self.sanitizer.entry_remapped(self.domain_id, gpfn, entry.mfn, new_mfn)
        old = entry.mfn
        entry.mfn = new_mfn
        entry.writable = True
        self.migrations += 1
        if self.observer is not None:
            self.observer.entry_set(gpfn, new_mfn)
        return old

    def unprotect(self, gpfn: int) -> None:
        entry = self._require_valid(gpfn)
        if self.sanitizer is not None:
            self.sanitizer.entry_unprotected(self.domain_id, gpfn)
        entry.writable = True

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    @property
    def num_valid(self) -> int:
        return sum(1 for e in self._entries.values() if e.valid)

    def _require_valid(self, gpfn: int) -> P2MEntry:
        entry = self._entries.get(gpfn)
        if entry is None or not entry.valid:
            raise P2MError(f"gpfn {gpfn:#x} has no valid entry")
        return entry

    # ------------------------------------------------------------- batch
    # Loop definitions of the batch API: what the vectorized versions
    # must be observationally equal to.

    def set_entries(
        self, gpfns: _GpfnArray, mfns: _GpfnArray, writable: bool = True
    ) -> None:
        gpfns = np.asarray(gpfns, dtype=np.int64)
        mfns = np.asarray(mfns, dtype=np.int64)
        if gpfns.shape != mfns.shape:
            raise P2MError("set_entries needs matching gpfn/mfn arrays")
        for gpfn, mfn in zip(gpfns.tolist(), mfns.tolist()):
            self.set_entry(gpfn, mfn, writable)

    def invalidate_many(
        self, gpfns: _GpfnArray
    ) -> Tuple[np.ndarray, np.ndarray]:
        hit_gpfns, hit_mfns = [], []
        for gpfn in np.asarray(gpfns, dtype=np.int64).tolist():
            mfn = self.invalidate(gpfn)
            if mfn is not None:
                hit_gpfns.append(gpfn)
                hit_mfns.append(mfn)
        return (
            np.asarray(hit_gpfns, dtype=np.int64),
            np.asarray(hit_mfns, dtype=np.int64),
        )

    def remove_many(self, gpfns: _GpfnArray) -> np.ndarray:
        mfns = [
            mfn
            for mfn in (
                self.remove(g)
                for g in np.asarray(gpfns, dtype=np.int64).tolist()
            )
            if mfn is not None
        ]
        return np.asarray(mfns, dtype=np.int64)

    def mfns_if_valid(self, gpfns: _GpfnArray) -> np.ndarray:
        return np.asarray(
            [
                self.mfn_if_valid(g)
                for g in np.asarray(gpfns, dtype=np.int64).tolist()
            ],
            dtype=np.int64,
        )

    def nodes_of(self, gpfns: _GpfnArray) -> np.ndarray:
        if self.frames_per_node is None:
            raise P2MError("nodes_of requires frames_per_node to be set")
        nodes = []
        for gpfn in np.asarray(gpfns, dtype=np.int64).tolist():
            mfn = self.mfn_if_valid(gpfn)
            nodes.append(-1 if mfn < 0 else mfn // self.frames_per_node)
        return np.asarray(nodes, dtype=np.int32)

    def write_protect_many(self, gpfns: _GpfnArray) -> None:
        for gpfn in np.asarray(gpfns, dtype=np.int64).tolist():
            self.write_protect(gpfn)

    def unprotect_many(self, gpfns: _GpfnArray) -> None:
        for gpfn in np.asarray(gpfns, dtype=np.int64).tolist():
            self.unprotect(gpfn)
