"""Run store behaviour: counters, persistence, invalidation."""

import json

import pytest

from repro.runstore import DiskRunStore, MemoryRunStore, ShardedDiskRunStore, open_store
from repro.runstore.disk import STORE_FORMAT, VERSION_STAMP
from repro.sim.engine import ENGINE_VERSION
from repro.sim.results import EpochRecord, RunResult
from repro.sim.runspec import RunRequest, VmRequest

from tests.properties.records_oracle import RowResult

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


def _recorded_results():
    """One result with three epochs of records (non-empty columns)."""
    return [
        RunResult(
            app="cg.C",
            environment="xen+",
            policy="Round-4K",
            completion_seconds=3.25,
            epochs=3,
            records=[
                EpochRecord(e, 100.0 + e, 0.5, 0.125, 0.75, 0.01 * e, e)
                for e in range(3)
            ],
            stats={"faults": 7.0},
        )
    ]


def _columns(payload):
    return payload["results"][0]["columns"]


def _set_column_value(name, value):
    def mutate(payload):
        _columns(payload)[name][0] = value

    return mutate


def _rows_instead_of_columns(payload):
    result = payload["results"][0]
    del result["columns"]
    result["records"] = [{"epoch": 0, "ops_done": 1.0, "imbalance": 0.0,
                          "max_link_rho": 0.0, "local_fraction": 1.0}]


#: Entries of the current version stamp whose shape is wrong anywhere.
MALFORMED = {
    "stats-is-a-list": lambda p: p["results"][0].update(stats=[]),
    "stats-is-a-string": lambda p: p["results"][0].update(stats="x"),
    "results-not-a-list": lambda p: p.update(results={"a": 1}),
    "result-not-an-object": lambda p: p.update(results=[1]),
    "result-without-app": lambda p: p["results"][0].pop("app"),
    "epochs-infinite": lambda p: p["results"][0].update(epochs=float("inf")),
    "rows-instead-of-columns": _rows_instead_of_columns,
    "columns-not-an-object": lambda p: p["results"][0].update(columns=[[0]]),
    "column-missing": lambda p: _columns(p).pop("migrations"),
    "column-extra": lambda p: _columns(p).update(extra=[0, 1, 2]),
    "column-not-a-list": lambda p: _columns(p).update(epoch=3),
    "columns-unequal-length": lambda p: _columns(p)["epoch"].append(3),
    "string-value": _set_column_value("ops_done", "1.5"),
    "bool-value": _set_column_value("imbalance", True),
    "null-value": _set_column_value("local_fraction", None),
    "nested-value": _set_column_value("max_link_rho", [0.5]),
    "float-in-int-column": _set_column_value("epoch", 1.5),
    "int-overflow": _set_column_value("migrations", 2 ** 70),
}


class TestMalformedEntries:
    """Any wrong shape behind a current version stamp is a discarded miss.

    ``stats: []`` used to raise a bare ``AttributeError`` out of ``get``
    (and, on the serve path, out of a submit).
    """

    @pytest.mark.parametrize("store_cls", [DiskRunStore, ShardedDiskRunStore])
    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_malformed_entry_is_a_miss_and_removed(self, tmp_path, store_cls, shape):
        store = store_cls(tmp_path / "rs")
        store.put(KEY, _recorded_results())
        entry = store._entry_path(KEY)
        payload = json.loads(entry.read_text())
        MALFORMED[shape](payload)
        entry.write_text(json.dumps(payload))
        assert store.get(KEY) is None
        assert not entry.exists()
        assert store.stats().misses == 1

    @pytest.mark.parametrize("store_cls", [DiskRunStore, ShardedDiskRunStore])
    def test_well_formed_entry_reads_back(self, tmp_path, store_cls):
        store = store_cls(tmp_path / "rs")
        store.put(KEY, _recorded_results())
        payload = json.loads(store._entry_path(KEY).read_text())
        assert payload["store_format"] == STORE_FORMAT
        assert "records" not in payload["results"][0]
        assert store.get(KEY) == _recorded_results()


def _format1_entry(results):
    """A stored entry as the row-format (format 1) writer left it."""
    rows = [RowResult.from_json(r.to_json()).to_json() for r in results]
    return {"engine_version": ENGINE_VERSION, "request": None, "results": rows}


class TestStoreFormatUpgrade:
    @pytest.mark.parametrize("store_cls", [DiskRunStore, ShardedDiskRunStore])
    def test_format1_store_is_purged_once_on_open(self, tmp_path, store_cls):
        root = tmp_path / "rs"
        store = store_cls(root)
        entry = store._entry_path(KEY)
        entry.write_text(json.dumps(_format1_entry(_recorded_results())))
        (root / "engine_version").write_text(ENGINE_VERSION + "\n")  # format 1
        upgraded = store_cls(root)
        assert upgraded.invalidated_entries() == 1
        assert upgraded.stats().invalidated == 1
        assert len(upgraded) == 0 and not entry.exists()
        assert (root / "engine_version").read_text().strip() == VERSION_STAMP
        upgraded.put(KEY, _recorded_results())
        again = store_cls(root)
        assert again.invalidated_entries() == 0
        assert again.get(KEY) == _recorded_results()

    @pytest.mark.parametrize("store_cls", [DiskRunStore, ShardedDiskRunStore])
    def test_copied_in_format1_entry_is_a_miss_and_removed(self, tmp_path, store_cls):
        store = store_cls(tmp_path / "rs")
        entry = store._entry_path(KEY)
        entry.write_text(json.dumps(_format1_entry(_recorded_results())))
        assert store.get(KEY) is None
        assert not entry.exists()

    def test_summary_names_both_causes(self, tmp_path):
        root = tmp_path / "rs"
        DiskRunStore(root).put(KEY, _results())
        (root / "engine_version").write_text(ENGINE_VERSION + "\n")
        summary = DiskRunStore(root).stats().summary()
        assert "1 invalidated by engine-version or store-format change" in summary


class TestOpenStore:
    @pytest.mark.parametrize("spec", [None, "", "memory"])
    def test_memory_specs(self, spec):
        assert isinstance(open_store(spec), MemoryRunStore)

    def test_path_spec(self, tmp_path):
        store = open_store(str(tmp_path / "rs"))
        assert isinstance(store, DiskRunStore)
        assert (tmp_path / "rs").is_dir()
