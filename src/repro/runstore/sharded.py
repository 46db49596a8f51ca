"""A sharded on-disk run store: fan-out by cache-key hex prefix.

Layout of the store directory (``.servestore/`` by convention)::

    .servestore/
        engine_version          # at the root: one version for all shards
        engine_version.lock
        ab/<sha256>.json        # entries whose key starts with "ab"
        c1/<sha256>.json
        ...

The flat :class:`~repro.runstore.disk.DiskRunStore` keeps every entry in
one directory — fine for a CLI invocation, but a serving layer with many
concurrent writer processes turns that directory into a single hot
inode: every create/rename serializes on the same directory lock, and a
``glob`` over tens of thousands of entries scans one huge listing. The
sharded store fans entries out into ``16 ** shard_width`` subdirectories
keyed by the first ``shard_width`` hex characters of the cache key
(:meth:`~repro.sim.runspec.RunRequest.cache_key` is hex SHA-256, so the
fan-out is uniform). Each shard is written with the same atomic
mkstemp-in-shard + rename discipline as the flat store, so any number of
concurrent writers — across processes — can save into the same shard, or
the same key, without tearing.

Invalidation semantics are identical to the flat store and shared with
it (one ``engine_version`` file at the root, the purge under the same
advisory lock, wholesale on mismatch); a flat store directory opened as
a sharded store simply migrates entry-by-entry as keys are re-saved —
old flat entries are not visible through the sharded layout and are
dropped by ``clear()`` or an engine-version bump.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Union

from repro.errors import ReproError
from repro.runstore.disk import DiskRunStore

#: Characters a shard directory name may consist of (hex, lowercase).
_HEX = set("0123456789abcdef")


class ShardedDiskRunStore(DiskRunStore):
    """Hex-prefix-sharded JSON-per-key store rooted at ``root``.

    Args:
        root: store directory (created if missing).
        shard_width: hex characters of the key that name the shard
            (1 → 16 shards, 2 → 256 shards; default 2). Re-opening an
            existing store with a different width would make existing
            entries invisible, so the width is recorded per-directory
            implicitly by the shard names — callers must keep it stable
            for the lifetime of a store directory.
    """

    def __init__(self, root: Union[str, Path], shard_width: int = 2) -> None:
        if not 1 <= int(shard_width) <= 4:
            raise ReproError(f"shard_width must be in 1..4, got {shard_width}")
        self.shard_width = int(shard_width)
        super().__init__(root)

    # ------------------------------------------------------------------
    # Directory layout

    def num_shards(self) -> int:
        return 16 ** self.shard_width

    def shard_of(self, key: str) -> str:
        """The shard directory name of ``key`` (its first hex chars)."""
        prefix = key[: self.shard_width].lower()
        if len(prefix) < self.shard_width or not set(prefix) <= _HEX:
            # Non-hex keys (hand-written test keys, foreign content) all
            # land in one overflow shard rather than poisoning the
            # directory namespace with arbitrary prefixes.
            return "_" * self.shard_width
        return prefix

    def _shard_dirs(self) -> Iterable[Path]:
        for child in sorted(self.root.iterdir()):
            if not child.is_dir():
                continue
            name = child.name
            if len(name) == self.shard_width and (
                set(name) <= _HEX or name == "_" * self.shard_width
            ):
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
