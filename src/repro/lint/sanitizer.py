"""Runtime P2M sanitizer: the dynamic half of the correctness tooling.

The static rules freeze the architecture; this module checks the
*dynamic* invariants of the paper's memory machinery while tests run:

* a machine frame backs at most one (domain, gpfn) at a time — a second
  ``set_entry`` on the same mfn is a **double map** (paper section 2.1:
  the p2m is what isolates domains from each other);
* a frame returned to the heap must not be mapped, and a mapped frame
  must not be freed while still referenced;
* migration follows write-protect -> copy -> remap (section 4.1):
  remapping an entry that was never write-protected, write-protecting
  twice, or revalidating an entry mid-migration all raise.

One :class:`P2MSanitizer` is owned by one hypervisor and attached to its
machine memory and to each domain's p2m table (``.sanitizer``
attributes, ``None`` when disabled — the hooks cost one attribute check
each). :func:`enable` / :func:`disable` are the one switch (the tier-1
test suite enables it via ``tests/conftest.py``); the sanitizer only
checks — a run either raises or yields the same numbers — so it is no
part of a run's cache identity.

Batch operations (``set_entries``, ``invalidate_many``/``remove_many``,
``write_protect_many``/``unprotect_many``, ``alloc_singles``,
``free_frames_many``) are checked in place by the batch hooks: each one
walks the whole batch in input order — earlier elements of the same
batch count, so two pairs mapping one frame are a double map at the
second pair — raises the error the per-entry loop would raise first,
and updates the shadow state only when the whole batch passes. The
single-entry hooks are the one-element case. A batch op runs its own
argument checks (:class:`~repro.errors.P2MError`,
:class:`~repro.errors.TopologyError`) over the whole batch before the
sanitizer sees it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Set, Tuple

from repro.errors import SanitizerError

class _SanitizerMode:
    """Holds the process-wide global-enable switch.

    An attribute on one holder object rather than a rebound module
    global, so the dataflow lint can see the write is confined to one
    owned object.
    """

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


_MODE = _SanitizerMode()


def enable() -> None:
    """Attach a sanitizer to every hypervisor created from now on."""
    _MODE.enabled = True


def disable() -> None:
    """Stop attaching sanitizers to newly created hypervisors."""
    _MODE.enabled = False


def is_enabled() -> bool:
    """Whether new hypervisors get a sanitizer."""
    return _MODE.enabled


class P2MSanitizer:
    """Shadow bookkeeping of frame ownership and migration state.

    The sanitizer never mutates hypervisor state: every hook either
    records the transition or raises :class:`SanitizerError` *before*
    the caller applies it, so a trapped violation leaves the real p2m
    and heap untouched.
    """

    def __init__(self) -> None:
        #: mfn -> (domain_id, gpfn) for every currently mapped frame.
        self._owners: Dict[int, Tuple[int, int]] = {}
        #: (domain_id, gpfn) -> mfn, the reverse of :attr:`_owners`.
        self._backing: Dict[Tuple[int, int], int] = {}
        #: Every frame currently handed out by the machine allocator.
        self._allocated: Set[int] = set()
        #: Entries write-protected by an in-flight migration.
        self._protected: Set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Machine allocator hooks

    def frames_allocated(self, mfn: int, count: int) -> None:
        """A run of ``count`` frames starting at ``mfn`` left the heap."""
        self._allocated.update(range(mfn, mfn + count))

    def frames_allocated_many(self, mfns: Iterable[int]) -> None:
        """A set of single frames left the heap (``alloc_singles``)."""
        self._allocated.update(mfns)

    def frames_freed(self, mfn: int, count: int) -> None:
        """A run of frames is about to return to the heap."""
        self.frames_freed_many(range(mfn, mfn + count))

    def frames_freed_many(self, mfns: Sequence[int]) -> None:
        """Frames are about to return to the heap, checked in input order."""
        for frame in mfns:
            owner = self._owners.get(frame)
            if owner is not None:
                raise SanitizerError(
                    f"freeing frame {frame:#x} still mapped at domain "
                    f"{owner[0]} gpfn {owner[1]:#x}; invalidate or remap "
                    f"the entry before freeing its frame"
                )
        self._allocated.difference_update(mfns)

    # ------------------------------------------------------------------
    # P2M table hooks (called before the table mutates)

    def entry_set(self, domain_id: int, gpfn: int, mfn: int) -> None:
        """``set_entry``: map/revalidate ``gpfn`` onto ``mfn``."""
        self.entries_set(domain_id, (gpfn,), (mfn,))

    def entries_set(
        self, domain_id: int, gpfns: Sequence[int], mfns: Sequence[int]
    ) -> None:
        """``set_entries``: map each ``gpfns[i]`` onto ``mfns[i]``.

        The pairs are checked in input order against the shadow state
        plus the pairs before them; nothing is recorded unless all pass.
        """
        owners: Dict[int, Tuple[int, int]] = {}
        backing: Dict[Tuple[int, int], int] = {}
        for gpfn, mfn in zip(gpfns, mfns):
            key = (domain_id, gpfn)
            if key in self._protected:
                raise SanitizerError(
                    f"set_entry on write-protected domain {domain_id} gpfn "
                    f"{gpfn:#x}: an in-flight migration must finish (remap) "
                    f"or abort (unprotect) first"
                )
            if mfn not in self._allocated:
                raise SanitizerError(
                    f"mapping frame {mfn:#x} that is not allocated from the "
                    f"heap (freed or never allocated) at domain {domain_id} "
                    f"gpfn {gpfn:#x}"
                )
            owner = owners.get(mfn, self._owners.get(mfn))
            if owner is not None and owner != key:
                raise SanitizerError(
                    f"double map of frame {mfn:#x}: already backs domain "
                    f"{owner[0]} gpfn {owner[1]:#x}, now mapped at domain "
                    f"{domain_id} gpfn {gpfn:#x}"
                )
            old_mfn = backing.get(key, self._backing.get(key))
            if old_mfn is not None and old_mfn != mfn:
                raise SanitizerError(
                    f"overwriting live mapping of domain {domain_id} gpfn "
                    f"{gpfn:#x} (frame {old_mfn:#x} -> {mfn:#x}) without "
                    f"invalidate or migrate; the old frame would leak"
                )
            owners[mfn] = key
            backing[key] = mfn
        self._owners.update(owners)
        self._backing.update(backing)

    def entry_invalidated(self, domain_id: int, gpfn: int) -> None:
        """``invalidate``/``remove``: ``gpfn`` no longer translates."""
        key = (domain_id, gpfn)
        mfn = self._backing.pop(key, None)
        if mfn is not None:
            self._owners.pop(mfn, None)
        self._protected.discard(key)

    def entries_invalidated(self, domain_id: int, gpfns: Iterable[int]) -> None:
        """``invalidate_many``/``remove_many``: these gpfns no longer translate."""
        for gpfn in gpfns:
            self.entry_invalidated(domain_id, gpfn)

    def entry_write_protected(self, domain_id: int, gpfn: int) -> None:
        """``write_protect``: migration step one."""
        self.entries_write_protected(domain_id, (gpfn,))

    def entries_write_protected(
        self, domain_id: int, gpfns: Sequence[int]
    ) -> None:
        """``write_protect_many``: step one for a batch, in input order."""
        keys: Set[Tuple[int, int]] = set()
        for gpfn in gpfns:
            key = (domain_id, gpfn)
            if key in self._protected or key in keys:
                raise SanitizerError(
                    f"double write_protect of domain {domain_id} gpfn "
                    f"{gpfn:#x}: a migration of this page is already in flight"
                )
            keys.add(key)
        self._protected.update(keys)

    def entry_remapped(
        self, domain_id: int, gpfn: int, old_mfn: int, new_mfn: int
    ) -> None:
        """``remap``: migration step three (after the copy)."""
        key = (domain_id, gpfn)
        if key not in self._protected:
            raise SanitizerError(
                f"remap of domain {domain_id} gpfn {gpfn:#x} without a "
                f"preceding write_protect: migration must write-protect "
                f"before copy/remap (out-of-order migration)"
            )
        if new_mfn not in self._allocated:
            raise SanitizerError(
                f"remap of domain {domain_id} gpfn {gpfn:#x} onto frame "
                f"{new_mfn:#x} that is not allocated from the heap"
            )
        owner = self._owners.get(new_mfn)
        if owner is not None and owner != key:
            raise SanitizerError(
                f"double map via remap: frame {new_mfn:#x} already backs "
                f"domain {owner[0]} gpfn {owner[1]:#x}"
            )
        self._protected.discard(key)
        if self._backing.get(key) == old_mfn:
            self._owners.pop(old_mfn, None)
        self._owners[new_mfn] = key
        self._backing[key] = new_mfn

    def write_protection_fault(self, domain_id: int, gpfn: int) -> None:
        """The fault handler is accounting a write fault on ``gpfn``.

        A genuine write-protection fault can only occur while a migration
        of this page is in flight (write-protect happened, remap has
        not). Accounting one against an entry the protocol never
        protected — e.g. a ``writable`` bit flipped directly through an
        entry view — means the fault was forged.
        """
        key = (domain_id, gpfn)
        if key not in self._protected:
            raise SanitizerError(
                f"write-protection fault on domain {domain_id} gpfn "
                f"{gpfn:#x} with no migration in flight: the entry was "
                f"never write-protected through the migration protocol"
            )

    def entry_unprotected(self, domain_id: int, gpfn: int) -> None:
        """``unprotect``: a migration was aborted."""
        self.entries_unprotected(domain_id, (gpfn,))

    def entries_unprotected(self, domain_id: int, gpfns: Sequence[int]) -> None:
        """``unprotect_many``: abort a batch of migrations, in input order."""
        keys: Set[Tuple[int, int]] = set()
        for gpfn in gpfns:
            key = (domain_id, gpfn)
            if key not in self._protected or key in keys:
                raise SanitizerError(
                    f"unprotect of domain {domain_id} gpfn {gpfn:#x} that "
                    f"was never write-protected"
                )
            keys.add(key)
        self._protected.difference_update(keys)
