"""Run store behaviour: counters, persistence, invalidation."""

import json

import pytest

from repro.runstore import DiskRunStore, MemoryRunStore, open_store
from repro.sim.results import RunResult
from repro.sim.runspec import RunRequest, VmRequest

KEY = "a" * 64
OTHER = "b" * 64


def _results():
    return [
        RunResult(
            app="swaptions",
            environment="linux",
            policy="First-Touch",
            completion_seconds=12.5,
            epochs=4,
            stats={"faults": 7.0},
        )
    ]


def _request():
    return RunRequest(
        environment="linux", vms=(VmRequest(app="swaptions", policy="first-touch"),)
    )


class TestMemoryStore:
    def test_miss_then_hit_counters(self):
        store = MemoryRunStore()
        assert store.get(KEY) is None
        store.put(KEY, _results())
        assert store.get(KEY) is not None
        stats = store.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.entries == 1

    def test_contains_does_not_count(self):
        store = MemoryRunStore()
        assert KEY not in store
        store.put(KEY, _results())
        assert KEY in store
        assert store.stats().hits == 0
        assert store.stats().misses == 0

    def test_clear_keeps_dict_aliases_alive(self):
        # Callers may hold a reference to this dict; clear() must empty
        # it in place, never rebind it.
        store = MemoryRunStore()
        alias = store.data
        store.put(KEY, _results())
        store.clear()
        assert alias is store.data
        assert len(alias) == 0
        assert store.stats().hits == 0

    def test_summary_mentions_counters(self):
        store = MemoryRunStore()
        store.get(KEY)
        text = store.stats().summary()
        assert "hits" in text
        assert "misses" in text


class TestDiskStore:
    def test_persists_across_instances(self, tmp_path):
        store = DiskRunStore(tmp_path / "rs")
        store.put(KEY, _results(), request=_request())
        again = DiskRunStore(tmp_path / "rs")
        loaded = again.get(KEY)
        assert loaded == _results()
        assert again.stats().hits == 1

    def test_engine_version_bump_purges(self, tmp_path):
        root = tmp_path / "rs"
        store = DiskRunStore(root)
        store.put(KEY, _results())
        store.put(OTHER, _results())
        (root / "engine_version").write_text("0\n")
        fresh = DiskRunStore(root)
        assert fresh.invalidated_entries() == 2
        assert len(fresh) == 0
        assert fresh.get(KEY) is None

    def test_same_version_keeps_entries(self, tmp_path):
        root = tmp_path / "rs"
        DiskRunStore(root).put(KEY, _results())
        fresh = DiskRunStore(root)
        assert fresh.invalidated_entries() == 0
        assert len(fresh) == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        root = tmp_path / "rs"
        store = DiskRunStore(root)
        (root / f"{KEY}.json").write_text("{not json")
        assert store.get(KEY) is None
        assert not (root / f"{KEY}.json").exists()

    def test_stale_entry_version_is_a_miss(self, tmp_path):
        root = tmp_path / "rs"
        store = DiskRunStore(root)
        entry = {"engine_version": "0", "request": None, "results": []}
        (root / f"{KEY}.json").write_text(json.dumps(entry))
        assert store.get(KEY) is None

    def test_entry_records_request_payload(self, tmp_path):
        root = tmp_path / "rs"
        store = DiskRunStore(root)
        request = _request()
        store.put(request.cache_key(), _results(), request=request)
        payload = json.loads((root / f"{request.cache_key()}.json").read_text())
        assert payload["request"] == request.to_json()


class TestDiskStoreCrashSafety:
    """Torn/concurrent writes and crash litter (regression tests).

    The original ``_save`` staged every write of one key at the shared
    name ``<key>.json.tmp``: a concurrent save renamed — and thereby
    destroyed — the other writer's half-written temp file, and a temp
    file orphaned by a crash sat in the store directory forever.
    """

    def test_concurrent_saves_of_same_key(self, tmp_path, monkeypatch):
        import os as os_module

        store = DiskRunStore(tmp_path / "rs")
        real_replace = os_module.replace
        reentered = False

        def racing_replace(src, dst, **kwargs):
            # The moment the first save reaches its rename, a second
            # save of the same key runs start to finish — exactly the
            # interleaving two processes produce. With a shared temp
            # name the second save renames the first writer's file away
            # and the outer rename dies with FileNotFoundError.
            nonlocal reentered
            if not reentered:
                reentered = True
                store.put(KEY, _results())
            return real_replace(src, dst, **kwargs)

        monkeypatch.setattr("repro.runstore.disk.os.replace", racing_replace)
        store.put(KEY, _results())
        monkeypatch.undo()
        assert reentered
        loaded = store.get(KEY)
        assert loaded == _results()
        assert list((tmp_path / "rs").glob("*.json.tmp")) == []

    def test_save_leaves_no_temp_files(self, tmp_path):
        root = tmp_path / "rs"
        store = DiskRunStore(root)
        store.put(KEY, _results())
        store.put(OTHER, _results())
        assert list(root.glob("*.json.tmp")) == []
        assert len(store) == 2

    def test_stale_tmp_swept_on_open(self, tmp_path):
        root = tmp_path / "rs"
        DiskRunStore(root).put(KEY, _results())
        litter = root / f"{OTHER}.12345.json.tmp"
        litter.write_text("half-written entry from a crashed writer")
        store = DiskRunStore(root)
        assert not litter.exists()
        assert store.get(KEY) is not None  # real entries untouched

    def test_stale_tmp_swept_on_clear(self, tmp_path):
        root = tmp_path / "rs"
        store = DiskRunStore(root)
        store.put(KEY, _results())
        litter = root / f"{KEY}.999.json.tmp"
        litter.write_text("crash litter")
        store.clear()
        assert not litter.exists()
        assert len(store) == 0


class TestVersionCheckConcurrency:
    """Engine-version bookkeeping under concurrency (regression tests).

    The original ``_check_engine_version`` wrote the version file with a
    bare ``write_text`` (a crash could leave a truncated file that purges
    a current store on the next open) and purged without any
    inter-process coordination: two processes opening one stale store
    concurrently purged twice, the slower purge deleting entries the
    faster opener had already re-saved.
    """

    def test_version_file_written_atomically(self, tmp_path, monkeypatch):
        import os as os_module

        replaced = []
        real_replace = os_module.replace

        def recording_replace(src, dst, **kwargs):
            replaced.append(str(dst))
            return real_replace(src, dst, **kwargs)

        monkeypatch.setattr("repro.runstore.disk.os.replace", recording_replace)
        root = tmp_path / "rs"
        DiskRunStore(root)
        assert str(root / "engine_version") in replaced
        assert (root / "engine_version").read_text().strip() != ""

    def test_second_stale_opener_skips_the_purge(self, tmp_path, monkeypatch):
        root = tmp_path / "rs"
        DiskRunStore(root).put(KEY, _results())
        (root / "engine_version").write_text("0\n")
        # Process A migrates the store (purge + version rewrite) and
        # saves a fresh entry.
        first = DiskRunStore(root)
        assert first.invalidated_entries() == 1
        first.put(KEY, _results())
        # Process B read the stale version *before* A migrated; by the
        # time B holds the purge lock the version file is current. B
        # must re-check under the lock and leave A's fresh entry alone.
        real_read = DiskRunStore._read_version
        calls = {"n": 0}

        def stale_first_read(self):
            calls["n"] += 1
            if calls["n"] == 1:
                return "0"  # the pre-migration value B observed
            return real_read(self)

        monkeypatch.setattr(DiskRunStore, "_read_version", stale_first_read)
        second = DiskRunStore(root)
        assert calls["n"] >= 2  # re-checked under the lock
        assert second.invalidated_entries() == 0
        assert second.get(KEY) == _results()

    def test_purge_runs_under_the_version_lock(self, tmp_path, monkeypatch):
        import fcntl

        root = tmp_path / "rs"
        DiskRunStore(root).put(KEY, _results())
        (root / "engine_version").write_text("0\n")
        locked_during_purge = []
        real_purge = DiskRunStore._purge_stale_locked

        def checking_purge(self):
            # flock is re-entrant within one process only in the sense
            # that a second LOCK_EX on a *new* fd would block; probe with
            # a non-blocking attempt instead.
            probe = open(root / "engine_version.lock", "a")
            try:
                fcntl.flock(probe.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                locked_during_purge.append(True)
            else:
                fcntl.flock(probe.fileno(), fcntl.LOCK_UN)
                locked_during_purge.append(False)
            finally:
                probe.close()
            return real_purge(self)

        monkeypatch.setattr(DiskRunStore, "_purge_stale_locked", checking_purge)
        DiskRunStore(root)
        assert locked_during_purge == [True]


class TestTransientReadErrors:
    """Satellite regression: only provably-bad entries may be discarded.

    The original ``_load`` treated *any* ``OSError`` as a corrupt entry
    and unlinked the file — so a transient EACCES/EMFILE (routine under
    the serve layer's fd pressure) silently destroyed a perfectly good
    cached run.
    """

    def test_transient_read_error_is_miss_without_unlink(
        self, tmp_path, monkeypatch
    ):
        from pathlib import Path

        root = tmp_path / "rs"
        store = DiskRunStore(root)
        store.put(KEY, _results())
        entry = root / f"{KEY}.json"
        real_read_text = Path.read_text
        flaked = {"n": 0}

        def flaky_read_text(self, *args, **kwargs):
            if self.name == entry.name and flaked["n"] == 0:
                flaked["n"] += 1
                raise PermissionError(13, "transient denial")
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", flaky_read_text)
        assert store.get(KEY) is None  # the failed read is a miss...
        monkeypatch.undo()
        assert entry.exists()  # ...but the entry survives
        assert store.get(KEY) == _results()  # and the next read succeeds

    def test_undecodable_entry_still_discarded(self, tmp_path):
        root = tmp_path / "rs"
        store = DiskRunStore(root)
        (root / f"{KEY}.json").write_text('{"engine_version": 3}')  # wrong shape
        assert store.get(KEY) is None
        assert not (root / f"{KEY}.json").exists()


class TestOpenStore:
    @pytest.mark.parametrize("spec", [None, "", "memory"])
    def test_memory_specs(self, spec):
        assert isinstance(open_store(spec), MemoryRunStore)

    def test_path_spec(self, tmp_path):
        store = open_store(str(tmp_path / "rs"))
        assert isinstance(store, DiskRunStore)
        assert (tmp_path / "rs").is_dir()
