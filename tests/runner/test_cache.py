"""ResultCache storage semantics: round-trips, corruption, clearing,
batched commits."""

import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import repro
from repro.runner import CacheStats, ResultCache, SimPoint, SweepRunner
from repro.runner import cache as cache_module
from repro.units import MiB


def _point(size=1 * MiB):
    return SimPoint.make(
        "fig03",
        "h2d/pinned",
        "repro.bench_suites.comm_scope:measure_h2d",
        interface="pinned_memcpy",
        size=size,
    )


def _write_row(cache, key, blob):
    """Overwrite one committed row behind the cache's back."""
    with sqlite3.connect(cache.path) as db:
        db.execute("UPDATE entries SET value = ? WHERE key = ?", (blob, key))


def _committed_keys(cache):
    with sqlite3.connect(cache.path) as db:
        return {key for (key,) in db.execute("SELECT key FROM entries")}


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path, version="1")
        key = cache.key_for(_point())
        assert key is not None
        hit, _ = cache.load(key)
        assert not hit
        cache.store(key, 123.5)
        hit, value = cache.load(key)
        assert hit and value == 123.5
        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 1,
            "stores": 1,
            "uncacheable": 0,
            "errors": 0,
        }
        assert cache.path == tmp_path / "results-v2.sqlite"

    def test_version_isolates_entries(self, tmp_path):
        old = ResultCache(tmp_path, version="1")
        new = ResultCache(tmp_path, version="2")
        key_old = old.key_for(_point())
        key_new = new.key_for(_point())
        assert key_old != key_new
        old.store(key_old, 1.0)
        hit, _ = new.load(key_new)
        assert not hit

    def test_corrupt_entry_is_dropped_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path, version="1")
        key = cache.key_for(_point())
        cache.store(key, 1.0)
        _write_row(cache, key, b"not a pickle")
        hit, _ = cache.load(key)
        assert not hit
        assert cache.stats.errors == 1
        assert cache.stats.misses == 1
        assert key not in _committed_keys(cache)

    def test_entries_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path, version="1")
        for size in (1 * MiB, 2 * MiB, 4 * MiB):
            cache.store(cache.key_for(_point(size)), float(size))
        assert cache.entry_count() == 3
        assert cache.total_bytes() > 0
        assert "entries: 3" in cache.describe()
        assert cache.clear() == 3
        assert cache.entry_count() == 0

    def test_inflight_temp_files_are_not_entries(self, tmp_path):
        """Stray files in the cache directory (v1 shards, temporaries
        of a killed writer) are never counted or sized as entries."""
        cache = ResultCache(tmp_path, version="1")
        key = cache.key_for(_point())
        cache.store(key, 1.0)
        shard = tmp_path / "objects" / key[:2]
        shard.mkdir(parents=True)
        (shard / f"{key}.pkl").write_bytes(b"v1 entry")
        (shard / ".tmp-abandoned.pkl").write_bytes(b"partial write")
        assert cache.entry_count() == 1
        with sqlite3.connect(cache.path) as db:
            (committed,) = db.execute("SELECT length(value) FROM entries").fetchone()
        assert cache.total_bytes() == committed

    def test_clear_sweeps_stale_temp_files_uncounted(self, tmp_path):
        """``clear`` removes a leftover v1 ``objects/`` tree but counts
        only committed rows."""
        cache = ResultCache(tmp_path, version="1")
        cache.store(cache.key_for(_point()), 1.0)
        legacy = tmp_path / "objects" / "ab"
        legacy.mkdir(parents=True)
        (legacy / ("ab" * 32 + ".pkl")).write_bytes(b"x")
        (legacy / ".tmp-abandoned.pkl").write_bytes(b"x")
        assert cache.clear() == 1
        assert not (tmp_path / "objects").exists()

    def test_total_bytes_tolerates_concurrent_clear(self, tmp_path):
        """Sizes count committed rows only: another handle's clear is
        seen at once, and rows still buffered in a batch are not."""
        cache = ResultCache(tmp_path, version="1")
        for size in (1 * MiB, 2 * MiB):
            cache.store(cache.key_for(_point(size)), float(size))
        assert cache.total_bytes() > 0
        with cache.batch():
            cache.store(cache.key_for(_point(4 * MiB)), 4.0)
            assert ResultCache(tmp_path, version="1").clear() == 2
            assert cache.total_bytes() == 0
        assert cache.entry_count() == 1

    def test_clear_tolerates_concurrent_clear(self, tmp_path):
        cache = ResultCache(tmp_path, version="1")
        cache.store(cache.key_for(_point()), 1.0)
        other = ResultCache(tmp_path, version="1")
        assert other.clear() == 1
        assert cache.clear() == 0  # already gone: nothing to remove

    def test_env_var_sets_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        cache = ResultCache()
        assert cache.directory == tmp_path / "env-cache"

    def test_stats_dataclass_defaults(self):
        stats = CacheStats()
        assert stats.as_dict() == {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "uncacheable": 0,
            "errors": 0,
        }

    def test_missing_directory_is_reported_empty_and_not_created(self, tmp_path):
        cache = ResultCache(tmp_path / "absent", version="1")
        assert cache.entry_count() == 0
        assert "entries: 0" in cache.describe()
        assert cache.load("ab" * 32) == (False, None)
        assert cache.clear() == 0
        assert not (tmp_path / "absent").exists()


class TestBatch:
    def test_load_sees_an_open_batch(self, tmp_path):
        cache = ResultCache(tmp_path, version="1")
        key = cache.key_for(_point())
        with cache.batch():
            cache.store(key, 7.0)
            assert cache.load(key) == (True, 7.0)
            # Buffered, not committed: other handles do not see it yet.
            assert ResultCache(tmp_path, version="1").load(key) == (False, None)
        assert ResultCache(tmp_path, version="1").load(key) == (True, 7.0)
        assert cache.stats.stores == 1

    def test_run_points_commits_once_per_grid(self, tmp_path, monkeypatch):
        commits = []
        run = cache_module._Store.run

        def spy(store, sql, *args, **kwargs):
            if sql.startswith("INSERT"):
                commits.append(len(args[0]))
            return run(store, sql, *args, **kwargs)

        monkeypatch.setattr(cache_module._Store, "run", spy)
        runner = SweepRunner(cache=ResultCache(tmp_path, version="1"))
        points = [_point(size * MiB) for size in (1, 2, 4, 8)]
        cold = runner.run_points(points)
        assert commits == [4]
        assert runner.cache.stats.stores == 4
        assert runner.run_points(points) == cold  # warm: nothing to commit
        assert commits == [4]

    def test_garbage_cache_file_never_crashes_a_run(self, tmp_path):
        cache = ResultCache(tmp_path, version="1")
        cache.path.write_bytes(b"this is not a database" * 100)
        runner = SweepRunner(cache=cache)
        points = [_point(size * MiB) for size in (1, 2)]
        first = runner.run_points(points)
        assert runner.stats.executed == 2
        assert cache.stats.misses == 2
        assert cache.stats.errors == 2  # the dropped commit's rows
        assert cache.stats.stores == 0
        assert cache.entry_count() == 0
        assert cache.clear() == 0  # deletes the file...
        assert SweepRunner(cache=cache).run_points(points) == first
        assert cache.entry_count() == 2  # ...and the store works again


def _spy_selects(monkeypatch):
    """Record the bound keys of every ``SELECT`` the store runs."""
    selects = []
    run = cache_module._Store.run

    def spy(store, sql, *args, **kwargs):
        if sql.startswith("SELECT key, value"):
            selects.append(args[0])
        return run(store, sql, *args, **kwargs)

    monkeypatch.setattr(cache_module._Store, "run", spy)
    return selects


class TestLoadMany:
    def test_warm_grid_is_one_select(self, tmp_path, monkeypatch):
        points = [_point(size * MiB) for size in (1, 2, 4, 8, 16)]
        cold = SweepRunner(cache=ResultCache(tmp_path, version="1"))
        outputs = cold.run_points(points + points[:2])
        selects = _spy_selects(monkeypatch)
        warm = SweepRunner(cache=ResultCache(tmp_path, version="1"))
        assert warm.run_points(points + points[:2]) == outputs
        assert len(selects) == 1 and len(selects[0]) == 5  # distinct keys
        assert (warm.stats.executed, warm.stats.cache_misses) == (0, 0)
        assert warm.stats.cache_hits == 7
        assert warm.stats.cache_hits == cold.stats.cache_hits + 5

    def test_counts_match_per_key_loads(self, tmp_path):
        writer = ResultCache(tmp_path, version="1")
        keys = [writer.key_for(_point(size * MiB)) for size in (1, 2, 4, 8)]
        for key in keys[:3]:
            writer.store(key, key[:6])
        _write_row(writer, keys[1], b"not a pickle")
        many = ResultCache(tmp_path, version="1")
        found = many.load_many(keys)
        # load_many deleted the corrupt row: replay its miss on a copy.
        writer.store(keys[1], keys[1][:6])
        _write_row(writer, keys[1], b"not a pickle")
        single = ResultCache(tmp_path, version="1")
        loaded = {key: single.load(key) for key in keys}
        assert found == {key: value for key, (hit, value) in loaded.items() if hit}
        assert found == {keys[0]: keys[0][:6], keys[2]: keys[2][:6]}
        assert many.stats == single.stats
        assert many.stats.as_dict() == {
            "hits": 2, "misses": 2, "stores": 0, "uncacheable": 0, "errors": 1,
        }

    def test_corrupt_row_in_a_batch_is_deleted(self, tmp_path):
        cache = ResultCache(tmp_path, version="1")
        keys = [cache.key_for(_point(size * MiB)) for size in (1, 2, 4)]
        with cache.batch():
            for key in keys:
                cache.store(key, 1.0)
        _write_row(cache, keys[1], b"\x80\x05 truncated")
        found = cache.load_many(keys)
        assert set(found) == {keys[0], keys[2]}
        assert (cache.stats.errors, cache.stats.misses) == (1, 1)
        assert _committed_keys(cache) == {keys[0], keys[2]}

    def test_open_batch_is_read_first(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path, version="1")
        committed, buffered, absent = (
            cache.key_for(_point(size * MiB)) for size in (1, 2, 4)
        )
        cache.store(committed, "old")
        selects = _spy_selects(monkeypatch)
        with cache.batch():
            cache.store(committed, "new")
            cache.store(buffered, "buffered")
            found = cache.load_many([committed, buffered, absent])
        assert found == {committed: "new", buffered: "buffered"}
        assert selects == [(absent,)]  # buffered keys never reach SQLite
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)

    def test_more_keys_than_sqlite_variables(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path, version="1")
        keys = [f"{index:064x}" for index in range(2000)]
        with cache.batch():
            for index, key in enumerate(keys[::2]):
                cache.store(key, index)
        selects = _spy_selects(monkeypatch)
        found = ResultCache(tmp_path, version="1").load_many(keys)
        assert found == {key: index for index, key in enumerate(keys[::2])}
        assert [len(chunk) for chunk in selects] == [900, 900, 200]


def test_import_repro_does_not_load_sqlite3():
    """The store imports ``sqlite3`` on first use, never at import."""
    code = "import sys, repro\nassert 'sqlite3' not in sys.modules\n"
    src = str(Path(repro.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
