"""Sharded store: layout, invalidation, and multi-process stress.

The stress tests fork real writer processes (the scenario the sharded
layout exists for: the serving layer's worker pool all saving into one
store). Worker functions live at module level so the pool can address
them.
"""

import hashlib
import json
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.runstore import (
    DiskRunStore,
    MemoryRunStore,
    ShardedDiskRunStore,
    disk,
    open_store,
)
from repro.sim.engine import ENGINE_VERSION
from repro.sim.results import RunResult

WRITERS = 8
ENTRIES_PER_WRITER = 25
SHARED_KEY = hashlib.sha256(b"shared").hexdigest()


def _results(marker=1.0):
    return [
        RunResult(
            app="swaptions",
            environment="linux",
            policy="First-Touch",
            completion_seconds=marker,
            epochs=4,
            stats={"faults": 7.0},
        )
    ]


def _key(writer, index):
    return hashlib.sha256(f"{writer}-{index}".encode()).hexdigest()


class TestLayout:
    def test_entries_land_in_prefix_shards(self, tmp_path):
        store = ShardedDiskRunStore(tmp_path / "rs")
        key = _key(0, 0)
        store.put(key, _results())
        assert (tmp_path / "rs" / key[:2] / f"{key}.json").is_file()
        assert store.get(key) == _results()

    def test_non_hex_keys_use_the_overflow_shard(self, tmp_path):
        store = ShardedDiskRunStore(tmp_path / "rs")
        store.put("not-a-hex-key", _results())
        assert (tmp_path / "rs" / "__" / "not-a-hex-key.json").is_file()
        assert store.get("not-a-hex-key") == _results()

    def test_len_and_clear_span_all_shards(self, tmp_path):
        store = ShardedDiskRunStore(tmp_path / "rs")
        keys = [_key(0, i) for i in range(10)]
        for key in keys:
            store.put(key, _results())
        assert len(store) == 10
        assert len({key[:2] for key in keys}) > 1  # really spans shards
        store.clear()
        assert len(store) == 0

    def test_persists_across_instances(self, tmp_path):
        key = _key(1, 1)
        ShardedDiskRunStore(tmp_path / "rs").put(key, _results())
        again = ShardedDiskRunStore(tmp_path / "rs")
        assert again.get(key) == _results()
        assert again.stats().hits == 1


class TestInvalidation:
    def test_version_bump_purges_every_shard(self, tmp_path):
        root = tmp_path / "rs"
        store = ShardedDiskRunStore(root)
        keys = [_key(2, i) for i in range(8)]
        for key in keys:
            store.put(key, _results())
        (root / "engine_version").write_text("0\n")
        fresh = ShardedDiskRunStore(root)
        assert fresh.invalidated_entries() == 8
        assert len(fresh) == 0
        for key in keys:
            assert fresh.get(key) is None

    def test_same_version_keeps_entries(self, tmp_path):
        root = tmp_path / "rs"
        key = _key(3, 0)
        ShardedDiskRunStore(root).put(key, _results())
        fresh = ShardedDiskRunStore(root)
        assert fresh.invalidated_entries() == 0
        assert len(fresh) == 1

    def test_shard_tmp_litter_survives_open_but_not_clear(self, tmp_path):
        # An opener must NOT sweep shard-level temp files: with many
        # writer processes, a staged-but-unrenamed file may belong to a
        # live writer, not a crashed one. clear() (quiescent by contract)
        # does sweep them.
        root = tmp_path / "rs"
        key = _key(4, 0)
        ShardedDiskRunStore(root).put(key, _results())
        litter = root / key[:2] / f"{key}.999.json.tmp"
        litter.write_text("staged write, maybe still in progress")
        store = ShardedDiskRunStore(root)
        assert litter.exists()  # open leaves it alone
        assert store.get(key) == _results()
        store.clear()
        assert not litter.exists()

    def test_version_tmp_litter_swept_on_open(self, tmp_path):
        root = tmp_path / "rs"
        ShardedDiskRunStore(root)
        litter = root / "engine_version.999.tmp"
        litter.write_text("half-written version file")
        ShardedDiskRunStore(root)
        assert not litter.exists()


class TestOpenStore:
    def test_sharded_prefix_spec(self, tmp_path):
        store = open_store(f"sharded:{tmp_path / 'rs'}")
        assert isinstance(store, ShardedDiskRunStore)

    def test_sharded_flag(self, tmp_path):
        assert isinstance(
            open_store(str(tmp_path / "rs"), sharded=True), ShardedDiskRunStore
        )

    def test_flag_keeps_memory_specs_in_memory(self):
        assert isinstance(open_store(None, sharded=True), MemoryRunStore)
        assert isinstance(open_store("memory", sharded=True), MemoryRunStore)

    def test_plain_spec_stays_flat(self, tmp_path):
        store = open_store(str(tmp_path / "rs"))
        assert isinstance(store, DiskRunStore)
        assert not isinstance(store, ShardedDiskRunStore)


# ----------------------------------------------------------------------
# Multi-process stress (module-level workers for the process pool)


def _stress_writer(args):
    """One writer process: distinct keys plus contended same-key saves."""
    root, writer = args
    store = ShardedDiskRunStore(root)
    for index in range(ENTRIES_PER_WRITER):
        store.put(_key(writer, index), _results(marker=float(writer)))
        # Every writer also hammers one shared key every iteration —
        # concurrent same-key renames must never tear.
        store.put(SHARED_KEY, _results(marker=float(writer)))
    return writer


def _race_opener(args):
    """Open a (possibly stale) store, then immediately write and read."""
    root, writer = args
    store = ShardedDiskRunStore(root)
    key = _key(writer, 0)
    store.put(key, _results(marker=float(writer)))
    return (writer, store.get(key) == _results(marker=float(writer)))


class TestConcurrentWriters:
    def test_stress_no_lost_or_torn_entries(self, tmp_path):
        root = str(tmp_path / "rs")
        ShardedDiskRunStore(root)  # create + write the version file once
        with ProcessPoolExecutor(max_workers=WRITERS) as pool:
            done = list(pool.map(_stress_writer, [(root, w) for w in range(WRITERS)]))
        assert sorted(done) == list(range(WRITERS))
        store = ShardedDiskRunStore(root)
        # Every distinct entry present and intact.
        assert len(store) == WRITERS * ENTRIES_PER_WRITER + 1
        for writer in range(WRITERS):
            for index in range(ENTRIES_PER_WRITER):
                loaded = store.get(_key(writer, index))
                assert loaded == _results(marker=float(writer))
        # The contended key holds one complete entry from some writer.
        shared = store.get(SHARED_KEY)
        assert shared is not None
        assert shared[0].completion_seconds in {float(w) for w in range(WRITERS)}
        # No crash litter, correct counters.
        assert list((tmp_path / "rs").glob("**/*.json.tmp")) == []
        stats = store.stats()
        assert stats.hits == WRITERS * ENTRIES_PER_WRITER + 1
        assert stats.misses == 0

    def test_concurrent_stale_openers_purge_once(self, tmp_path):
        # Stale twice over: another engine version, and the current
        # engine with the format-1 store (a format-only mismatch).
        for stale in ("0", ENGINE_VERSION):
            root = tmp_path / f"rs-{stale}"
            seeded = ShardedDiskRunStore(root)
            for index in range(8):
                seeded.put(_key(99, index), _results())
            (root / "engine_version").write_text(stale + "\n")
            # Eight processes race to open the stale store; each one then
            # immediately saves a fresh entry. Without the purge lock a
            # slow opener's wholesale purge deletes entries a fast opener
            # already re-saved after migrating the store.
            with ProcessPoolExecutor(max_workers=WRITERS) as pool:
                outcomes = list(
                    pool.map(_race_opener, [(str(root), w) for w in range(WRITERS)])
                )
            assert all(ok for _, ok in outcomes)
            final = ShardedDiskRunStore(root)
            assert final.invalidated_entries() == 0  # already migrated
            for writer in range(WRITERS):
                assert final.get(_key(writer, 0)) == _results(marker=float(writer))
            for index in range(8):  # the stale seed entries are gone
                assert final.get(_key(99, index)) is None
            version = (root / "engine_version").read_text().strip()
            assert version == disk.VERSION_STAMP

    @pytest.mark.parametrize("store_cls", [DiskRunStore, ShardedDiskRunStore])
    def test_open_during_version_write_keeps_the_staged_file(
        self, tmp_path, monkeypatch, store_cls
    ):
        # Deterministic replay of the stale-opener race: a second open
        # lands between the purging opener's `mkstemp` of the version
        # file and its rename. The second opener's litter sweep must wait
        # for the version lock instead of deleting the staged file.
        root = tmp_path / "rs"
        store_cls(root)
        (root / "engine_version").write_text("0\n")
        real_replace = os.replace
        second_open = {}

        def open_again():
            try:
                store_cls(root)
                second_open["ok"] = True
            except Exception as exc:  # surfaced by the assertion below
                second_open["error"] = exc

        def replace(src, dst):
            if Path(src).name.startswith("engine_version.") and not second_open:
                opener = threading.Thread(target=open_again)
                opener.start()
                # The unfixed sweep finishes at once; the fixed one blocks
                # on the lock this opener holds until the rename is done.
                opener.join(timeout=1.0)
                second_open.setdefault("thread", opener)
            return real_replace(src, dst)

        monkeypatch.setattr(disk.os, "replace", replace)
        first = store_cls(root)
        second_open["thread"].join()
        assert first.invalidated_entries() == 0
        assert second_open.get("ok"), second_open.get("error")
        assert (root / "engine_version").read_text().strip() == disk.VERSION_STAMP

    def test_entry_payloads_are_valid_json_after_stress(self, tmp_path):
        root = str(tmp_path / "rs")
        ShardedDiskRunStore(root)
        with ProcessPoolExecutor(max_workers=WRITERS) as pool:
            list(pool.map(_stress_writer, [(root, w) for w in range(WRITERS)]))
        store = ShardedDiskRunStore(root)
        for path in store._entry_files():
            payload = json.loads(path.read_text())
            assert payload["engine_version"] == ENGINE_VERSION
            assert payload["store_format"] == disk.STORE_FORMAT
            assert isinstance(payload["results"], list)
