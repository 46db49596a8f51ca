"""A sharded on-disk run store: fan-out by cache-key hex prefix.

Layout of the store directory (``.servestore/`` by convention)::

    .servestore/
        engine_version          # at the root: one VERSION_STAMP for all shards
        engine_version.lock
        ab/<sha256>.json        # entries whose key starts with "ab"
        c1/<sha256>.json
        ...

Each entry has the flat store's shape — ``{"engine_version",
"store_format", "request", "results"}`` with per-epoch ``"columns"`` in
every result (see :mod:`repro.runstore.disk` and its ``STORE_FORMAT``).

The flat :class:`~repro.runstore.disk.DiskRunStore` keeps every entry in
one directory — fine for a CLI invocation, but a serving layer with many
concurrent writer processes turns that directory into a single hot
inode: every create/rename serializes on the same directory lock, and a
``glob`` over tens of thousands of entries scans one huge listing. The
sharded store fans entries out into 256 subdirectories keyed by the
first :data:`SHARD_PREFIX_LEN` hex characters of the cache key
(:meth:`~repro.sim.runspec.RunRequest.cache_key` is hex SHA-256, so the
fan-out is uniform). Each shard is written with the same atomic
mkstemp-in-shard + rename discipline as the flat store, so any number of
concurrent writers — across processes — can save into the same shard, or
the same key, without tearing.

Invalidation semantics are identical to the flat store and shared with
it (one ``engine_version`` file at the root holding the engine version
and store format, the purge under the same advisory lock, wholesale on
mismatch); a flat store directory opened as a sharded store simply
migrates entry-by-entry as keys are re-saved — old flat entries are not
visible through the sharded layout and are dropped by ``clear()`` or a
version-stamp change.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.runstore.disk import DiskRunStore

#: Characters a shard directory name may consist of (hex, lowercase).
_HEX = set("0123456789abcdef")
#: Hex characters of the key that name its shard (256 shards). Changing
#: it would hide every entry of an existing store directory.
SHARD_PREFIX_LEN = 2
#: The shard of keys that are not hex (hand-written test keys, foreign
#: content).
_OVERFLOW = "_" * SHARD_PREFIX_LEN


class ShardedDiskRunStore(DiskRunStore):
    """Hex-prefix-sharded JSON-per-key store rooted at ``root``.

    Args:
        root: store directory (created if missing).
    """

    # ------------------------------------------------------------------
    # Directory layout

    def shard_of(self, key: str) -> str:
        """The shard directory name of ``key`` (its first hex chars)."""
        prefix = key[:SHARD_PREFIX_LEN].lower()
        if len(prefix) < SHARD_PREFIX_LEN or not set(prefix) <= _HEX:
            # Non-hex keys all land in one overflow shard rather than
            # poisoning the directory namespace with arbitrary prefixes.
            return _OVERFLOW
        return prefix

    def _shard_dirs(self) -> Iterable[Path]:
        for child in sorted(self.root.iterdir()):
            if not child.is_dir():
                continue
            name = child.name
            if len(name) == SHARD_PREFIX_LEN and (set(name) <= _HEX or name == _OVERFLOW):
                yield child

    def _entry_path(self, key: str) -> Path:
        shard = self.root / self.shard_of(key)
        # Lazy shard creation keeps small stores small; exist_ok makes
        # concurrent first-writers of one shard race-free.
        shard.mkdir(exist_ok=True)
        return shard / f"{key}.json"

    def _entry_files(self) -> Iterable[Path]:
        for shard in self._shard_dirs():
            yield from sorted(shard.glob("*.json"))

    def _tmp_files(self) -> Iterable[Path]:
        yield from super()._tmp_files()
        for shard in self._shard_dirs():
            yield from shard.glob("*.json.tmp")

    def _tmp_files_on_open(self) -> Iterable[Path]:
        # Opening a sharded store races live writers by design (every
        # serve worker process re-opens the same directory), and an
        # in-progress `mkstemp` staging file is indistinguishable from
        # crash litter — so the open-time sweep covers only root-level
        # version-file temps, never the shards. Shard litter is swept by
        # ``clear()`` and the engine-version purge, which run when the
        # store's contents are forfeit anyway. Root version temps are safe
        # to sweep because the sweep holds the version lock, which every
        # version write holds too (see ``_sweep_stale_tmp``).
        return self.root.glob("engine_version.*.tmp")
