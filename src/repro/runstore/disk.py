"""The on-disk run store: one JSON file per cache key.

Layout of the store directory (``.runstore/`` by convention)::

    .runstore/
        engine_version          # text file, the version that wrote the runs
        engine_version.lock     # advisory-lock file guarding the purge
        <sha256>.json           # {"engine_version", "request", "results"}

Invalidation is explicit and wholesale: when the directory was written by
a different :data:`repro.sim.engine.ENGINE_VERSION`, every entry is
deleted on open (the count is surfaced through ``stats()``), and the
version file is rewritten. Individual entries additionally carry the
version so a file copied in from elsewhere cannot resurrect stale runs.

Writes are atomic (unique temp file + rename) so a run killed mid-write
never leaves a half-entry that would poison later invocations, and two
processes saving the same key concurrently (``--jobs N`` workers, or two
invocations sharing one store) cannot tear each other's temp file — each
write stages through its own ``mkstemp`` name. Temp files orphaned by a
crash (``*.json.tmp``) are swept on open and on ``clear()``; malformed
entries are treated as misses and removed, but a *transient* read
failure (EACCES, EMFILE under fd pressure) is a miss that keeps the
entry — the file may read fine on the next attempt.

The engine-version check follows the same discipline: the version file
is written atomically (mkstemp + rename, never a bare ``write_text``
that a crash could truncate into a corrupt file that purges a current
store on the next open), and the purge itself runs under an advisory
file lock with the version re-read inside the lock — two processes
opening a stale store concurrently purge it once, not twice, so the
first opener's freshly-saved entries survive the second opener.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

try:  # pragma: no cover - always present on the POSIX hosts we target
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback: no inter-process lock
    fcntl = None  # type: ignore[assignment]

from repro.runstore.base import RunStore
from repro.sim.engine import ENGINE_VERSION
from repro.sim.results import RunResult
from repro.sim.runspec import RunRequest

_VERSION_FILE = "engine_version"
_LOCK_FILE = "engine_version.lock"


class DiskRunStore(RunStore):
    """JSON-per-key store rooted at ``root`` (created if missing)."""

    def __init__(self, root: Union[str, Path]) -> None:
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_tmp()
        self._invalidated = self._check_engine_version()

    # ------------------------------------------------------------------
    # Engine-version invalidation

    def _version_path(self) -> Path:
        return self.root / _VERSION_FILE

    def _read_version(self) -> Optional[str]:
        """The recorded engine version, or None (missing/unreadable)."""
        try:
            return self._version_path().read_text().strip()
        except OSError:
            return None

    @contextmanager
    def _version_lock(self) -> Iterator[None]:
        """Advisory inter-process lock serializing the stale-store purge."""
        handle = open(self.root / _LOCK_FILE, "a")
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()

    def _write_version(self) -> None:
        """Atomically record ENGINE_VERSION (mkstemp + rename, like _save).

        A crash mid-write must never leave a truncated version file: that
        would read as a mismatch and purge a perfectly current store on
        the next open.
        """
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=f"{_VERSION_FILE}.", suffix=".tmp"
        )
        tmp = Path(tmp_name)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(ENGINE_VERSION + "\n")
            os.replace(tmp, self._version_path())
        finally:
            if tmp.exists():  # the write or rename failed mid-way
                self._discard(tmp)

    def _check_engine_version(self) -> int:
        """Purge the store if it was written by another engine version.

        Double-checked locking: the unlocked read keeps the common case
        (current store) lock-free; on a mismatch the purge runs under the
        advisory lock with the version re-read first, so of two processes
        that both saw the stale version only the first purges — the
        second sees the freshly-written current version and leaves the
        first one's new entries alone.
        """
        if self._read_version() == ENGINE_VERSION:
            return 0
        with self._version_lock():
            return self._purge_stale_locked()

    def _purge_stale_locked(self) -> int:
        """Drop every entry and rewrite the version (lock held)."""
        if self._read_version() == ENGINE_VERSION:
            return 0  # another process migrated the store while we waited
        dropped = 0
        for entry in self._entry_files():
            self._discard(entry)
            dropped += 1
        for stale in self._tmp_files():
            self._discard(stale)
        self._write_version()
        return dropped

    def invalidated_entries(self) -> int:
        return self._invalidated

    def _sweep_stale_tmp(self) -> int:
        """Remove temp-file litter left behind by crashed writers.

        Entry and version files only ever appear via an atomic rename, so
        any temp file present when the store is (re)opened belongs to a
        writer that died mid-save and would otherwise be ignored forever.
        The sweep holds the version lock: version files are staged only
        under that lock (:meth:`_purge_stale_locked`), so a concurrent
        opener's in-progress version write is never swept out from under
        its rename. The unlocked check keeps the common case (no litter)
        lock-free.
        """
        if not any(self._tmp_files_on_open()):
            return 0
        removed = 0
        with self._version_lock():
            for stale in self._tmp_files_on_open():
                self._discard(stale)
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # Directory layout (overridden by the sharded store)

    def _entry_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _entry_files(self) -> Iterable[Path]:
        """Every entry file currently in the store."""
        return self.root.glob("*.json")

    def _tmp_files(self) -> Iterable[Path]:
        """Every staged-write temp file (crash litter candidates)."""
        yield from self.root.glob("*.json.tmp")
        yield from self.root.glob(f"{_VERSION_FILE}.*.tmp")

    def _tmp_files_on_open(self) -> Iterable[Path]:
        """The temp files it is safe to sweep when (re)opening the store.

        The flat store is written by one process per open, so anything
        staged is litter by the time a new open sees it. Layouts with
        concurrent writers (the sharded store) narrow this: an opener
        racing a live writer must not sweep the writer's in-progress
        staging file out from under its rename.
        """
        return self._tmp_files()

    # ------------------------------------------------------------------
    # Backend interface

    def _load(self, key: str) -> Optional[List[RunResult]]:
        path = self._entry_path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError:
            # Transient I/O failure (EACCES, EMFILE under the serve
            # layer's fd pressure): a miss, but the entry stays — it may
            # well read fine on the next attempt. Only decode/shape
            # errors below prove the file itself is bad.
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            self._discard(path)
            return None
        if not isinstance(payload, dict) or payload.get("engine_version") != ENGINE_VERSION:
            self._discard(path)
            return None
        try:
            return [RunResult.from_json(r) for r in payload["results"]]
        except (KeyError, TypeError, ValueError):
            self._discard(path)
            return None

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def _save(self, key: str, results: List[RunResult], request: Optional[RunRequest]) -> None:
        payload = {
            "engine_version": ENGINE_VERSION,
            "request": None if request is None else request.to_json(),
            "results": [r.to_json() for r in results],
        }
        path = self._entry_path(key)
        # A per-writer temp name: concurrent saves of the same key each
        # stage their own file, so the last rename wins with a complete
        # entry (a shared `<key>.json.tmp` let one writer rename — and
        # thereby delete — another's half-written temp file). The prefix
        # keeps the key visible for debugging; the suffix makes orphans
        # match the `*.json.tmp` sweep. Staging in the entry's own
        # directory keeps the rename atomic (same filesystem, and the
        # sharded layout stages inside the shard).
        text = json.dumps(payload, sort_keys=True)
        for attempt in (0, 1):
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f"{key}.", suffix=".json.tmp"
            )
            tmp = Path(tmp_name)
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp, path)
                return
            except FileNotFoundError:
                # A wholesale purge (engine-version bump) swept our
                # staged file between write and rename. Restage once;
                # losing the race twice means the store is being cleared
                # out from under us and the entry is forfeit anyway.
                if attempt == 1:
                    return
            finally:
                if tmp.exists():  # the write or rename failed mid-way
                    self._discard(tmp)

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_files())

    def clear(self) -> None:
        for entry in self._entry_files():
            self._discard(entry)
        for stale in self._tmp_files():  # full sweep: clear is quiescent
            self._discard(stale)
        self.reset_counters()
        self._invalidated = 0
