"""Multi-tenant ResultCache hammer: threads + processes on one store.

``repro serve`` promotes the cache to a shared result store — many
job threads (and sweep worker processes) hit one directory with mixed
``store``/``load``/``clear`` traffic.  These tests pin the properties
that make that safe:

- a reader never observes a torn entry (each commit is one SQLite
  transaction);
- ``load`` answers either a clean miss or the *complete* value, even
  racing ``clear``;
- stray files in the cache directory are never entries, and ``clear``
  during an open batch never raises.
"""

import multiprocessing
import sqlite3
import threading

import pytest

from repro.runner import ResultCache

KEYS = [f"{i:02x}{'ab' * 31}" for i in range(16)]  # 16 two-char shards


def _value_for(key: str) -> dict:
    # Big enough that a torn read cannot masquerade as a valid pickle.
    return {"key": key, "payload": [key] * 2000}


def _assert_survivors_complete(directory) -> None:
    survivor = ResultCache(directory, version="1")
    for key in KEYS:
        hit, value = survivor.load(key)
        assert not hit or value == _value_for(key)
    assert survivor.stats.errors == 0


def _hammer_store_load(directory: str, seed: int) -> int:
    """One process's worth of mixed traffic; returns observed errors."""
    cache = ResultCache(directory, version="1")
    for round_no in range(20):
        key = KEYS[(seed + round_no) % len(KEYS)]
        cache.store(key, _value_for(key))
        hit, value = cache.load(key)
        if hit and value != _value_for(key):
            raise AssertionError(f"torn read for {key}")
        if (seed + round_no) % 7 == 0:
            cache.clear()
    return cache.stats.errors


class TestThreadHammer:
    def test_store_load_clear_race_is_clean(self, tmp_path):
        cache_dir = str(tmp_path)
        failures = []
        barrier = threading.Barrier(8)

        def worker(seed):
            try:
                barrier.wait(timeout=60)
                _hammer_store_load(cache_dir, seed)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if failures:
            raise failures[0]
        # Every surviving committed entry is complete and loadable.
        _assert_survivors_complete(cache_dir)

    def test_concurrent_same_key_store_keeps_one_full_copy(self, tmp_path):
        """N writers racing on ONE key must leave exactly one complete
        entry (last commit wins)."""
        cache_dir = str(tmp_path)
        key = KEYS[0]
        barrier = threading.Barrier(12)

        def writer(tag):
            cache = ResultCache(cache_dir, version="1")
            barrier.wait(timeout=60)
            for _ in range(25):
                cache.store(key, _value_for(key))

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cache = ResultCache(cache_dir, version="1")
        assert cache.entry_count() == 1
        hit, value = cache.load(key)
        assert hit and value == _value_for(key)
        # Nothing beside the store file and its WAL companions.
        assert {p.name for p in tmp_path.iterdir()} <= {
            cache.path.name + suffix for suffix in ("", "-wal", "-shm")
        }


class TestProcessHammer:
    def test_cross_process_traffic(self, tmp_path):
        """Separate processes (real serve workers / sweep pools) share
        the store without corruption."""
        try:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(4) as pool:
                errors = pool.starmap(
                    _hammer_store_load, [(str(tmp_path), i) for i in range(4)]
                )
        except (OSError, NotImplementedError):
            pytest.skip("no multiprocessing in this sandbox")
        assert errors == [0, 0, 0, 0]
        _assert_survivors_complete(tmp_path)


class TestStaleTemporaries:
    def test_tmp_files_hidden_from_entries_and_swept_by_clear(self, tmp_path):
        """Files beside the store (a v1 shard tree with a dead writer's
        temporary, unrelated droppings) are never entries; ``clear``
        removes the v1 tree, counts only rows, and leaves the rest."""
        cache = ResultCache(tmp_path, version="1")
        cache.store(KEYS[0], _value_for(KEYS[0]))
        shard = tmp_path / "objects" / KEYS[0][:2]
        shard.mkdir(parents=True)
        (shard / f"{KEYS[1]}.pkl").write_bytes(b"v1 entry")
        (shard / ".tmp-dead12.pkl").write_bytes(b"\x80\x05 truncated garbage")
        unrelated = tmp_path / "notes.txt"
        unrelated.write_bytes(b"kept")
        assert cache.entry_count() == 1  # stray files are not entries
        assert cache.load(KEYS[1]) == (False, None)
        removed = cache.clear()
        assert removed == 1  # stray files are removed but not counted
        assert not (tmp_path / "objects").exists()
        assert unrelated.exists()
        assert cache.entry_count() == 0

    def test_store_racing_clear_never_raises(self, tmp_path):
        """A clear while another handle's batch is open never raises;
        the batch's rows commit after it, and the cleared ones stay
        gone."""
        cache = ResultCache(tmp_path, version="1")
        cache.store(KEYS[3], _value_for(KEYS[3]))  # healthy path first
        other = ResultCache(tmp_path, version="1")
        with cache.batch():
            cache.store(KEYS[4], _value_for(KEYS[4]))
            assert other.clear() == 1  # must not raise
            cache.store(KEYS[5], _value_for(KEYS[5]))
        assert cache.stats.errors == 0
        assert cache.stats.stores == 3
        assert other.load(KEYS[3]) == (False, None)
        for key in KEYS[4:6]:
            hit, value = other.load(key)
            assert hit and value == _value_for(key)

    def test_torn_entry_is_dropped_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path, version="1")
        cache.store(KEYS[1], _value_for(KEYS[1]))
        with sqlite3.connect(cache.path) as db:
            (blob,) = db.execute("SELECT value FROM entries").fetchone()
            db.execute(  # truncate mid-pickle
                "UPDATE entries SET value = ?", (blob[: len(blob) // 2],)
            )
        hit, value = cache.load(KEYS[1])
        assert not hit and value is None
        assert cache.stats.errors == 1
        assert cache.entry_count() == 0  # corrupt entry deleted, not retried

    def test_atomic_publication_never_exposes_partial(self, tmp_path):
        """A reader polling while a writer stores sees miss → full
        value, never a partial pickle (pins the one-transaction commit)."""
        cache_dir = str(tmp_path)
        key = KEYS[2]
        stop = threading.Event()
        bad = []

        def reader():
            cache = ResultCache(cache_dir, version="1")
            while not stop.is_set():
                hit, value = cache.load(key)
                if hit and value != _value_for(key):
                    bad.append(value)
            if cache.stats.errors:
                bad.append(f"{cache.stats.errors} corrupt reads")

        poller = threading.Thread(target=reader)
        poller.start()
        writer = ResultCache(cache_dir, version="1")
        for _ in range(200):
            writer.store(key, _value_for(key))
        stop.set()
        poller.join()
        assert not bad
