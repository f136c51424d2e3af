"""Content-addressed on-disk result cache.

Entries are rows ``(key, pickled {"key", "version", "value"})`` of one
SQLite file, :data:`STORE_FILE`, under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro``).  The key (see :mod:`repro.runner.keys`) encodes
the point parameters, calibration/topology fingerprints and package
version, so invalidation is simply "a changed input hashes to a
different key".  Stores inside :meth:`ResultCache.batch` commit in one
transaction (the runner commits once per grid): a crash loses at most
a batch and never tears an entry.  The cache promises recomputability
only, so an undecodable row is a counted miss, and a file that is not
a database turns loads into misses and commits into counted errors.
"""

from __future__ import annotations

import os
import pickle
import shutil
import threading
import weakref
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from .keys import UncacheableValueError, point_key
from .points import SimPoint

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: The store inside the cache directory; the suffix is the on-disk
#: format version (v1 was a sharded ``objects/`` tree of pickle files).
STORE_FILE = "results-v2.sqlite"

#: Keys per ``SELECT ... IN (...)``: below SQLite's historic limit of
#: 999 bound variables per statement.
_READ_CHUNK = 900


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro"


def _package_version() -> str:
    from .. import __version__

    return __version__


class _Store:
    """One process's connection to one store file, behind one lock.

    Shared by every :class:`ResultCache` handle on the file (serve runs
    one per job, on several threads); closed once no handle holds it and
    another store was used since.  Keyed by pid: a fork opens its own.
    """

    _open: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
    _open_lock = threading.Lock()
    _recent: "_Store | None" = None

    def __init__(self, path: Path) -> None:
        self.path = path
        self.pid = os.getpid()
        self.lock = threading.Lock()
        self.connection: Any = None

    @classmethod
    def shared(cls, path: Path) -> "_Store":
        with cls._open_lock:
            store = cls._open.get((os.getpid(), path))
            if store is None:
                store = cls._open[os.getpid(), path] = cls(path)
            cls._recent = store
        return store

    def _connect(self) -> Any:
        import sqlite3

        self.path.parent.mkdir(parents=True, exist_ok=True)
        db = sqlite3.connect(self.path, timeout=30.0, check_same_thread=False)
        try:  # a 64 KiB page cache keeps serve's RSS flat
            with suppress(sqlite3.OperationalError):  # a racing opener sets it
                db.execute("PRAGMA journal_mode=WAL")
            db.executescript(
                "PRAGMA synchronous=NORMAL; PRAGMA cache_size=-64; CREATE TABLE"
                " IF NOT EXISTS entries (key TEXT PRIMARY KEY, value BLOB);"
            )
        except BaseException:
            db.close()
            raise
        weakref.finalize(self, db.close)
        return db

    def run(self, sql: str, args: Any = (), *, create: bool = False) -> Any:
        """One committed statement (once per item of a list ``args``):
        a query's rows or a write's ``[(rows changed,)]``; ``None`` if
        there is no usable file (a missing one is made with ``create``)."""
        import sqlite3

        with self.lock:
            try:
                if self.connection is None:
                    if not create and not self.path.exists():
                        return None
                    self.connection = self._connect()
                with self.connection as db:
                    run = db.executemany if isinstance(args, list) else db.execute
                    cursor = run(sql, args)
                    if cursor.description is None:
                        return [(cursor.rowcount,)]
                    return cursor.fetchall()
            except (sqlite3.DatabaseError, OSError):
                return None


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    uncacheable: int = 0
    errors: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (for perf reports)."""
        return asdict(self)


class ResultCache:
    """Content-addressed pickle store for sim-point outputs."""

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        version: str | None = None,
    ) -> None:
        self.directory = Path(default_cache_dir() if directory is None else directory)
        self.version = version if version is not None else _package_version()
        self.stats = CacheStats()
        self.path = self.directory / STORE_FILE
        self._pending: dict[str, bytes] | None = None
        self._held: _Store | None = None

    def _store(self) -> _Store:
        if self._held is None or self._held.pid != os.getpid():
            self._held = _Store.shared(self.path)
        return self._held

    def key_for(self, point: SimPoint) -> str | None:
        """The point's cache key, or ``None`` if it is uncacheable."""
        try:
            return point_key(point, version=self.version)
        except UncacheableValueError:
            self.stats.uncacheable += 1
            return None

    def load(self, key: str) -> tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss."""
        found = self.load_many([key])
        if key in found:
            return True, found[key]
        return False, None

    def load_many(self, keys: Iterable[str]) -> dict[str, Any]:
        """``{key: value}`` for every hit among the distinct ``keys``.

        An open :meth:`batch` is read first; the rest takes one
        ``SELECT`` per :data:`_READ_CHUNK` keys.  Each key counts one
        hit or one miss; an undecodable row also counts an error and
        is deleted.
        """
        keys = list(dict.fromkeys(keys))
        pending = self._pending or {}
        blobs = {key: pending[key] for key in keys if key in pending}
        unread = [key for key in keys if key not in blobs]
        for start in range(0, len(unread), _READ_CHUNK):
            chunk = unread[start : start + _READ_CHUNK]
            rows = self._store().run(
                "SELECT key, value FROM entries WHERE key IN "
                f"({','.join('?' * len(chunk))})",
                tuple(chunk),
            )
            if rows:
                blobs.update(rows)
        found: dict[str, Any] = {}
        corrupt: list[tuple[str]] = []
        for key in keys:
            blob = blobs.get(key)
            if blob is None:
                continue
            try:
                found[key] = pickle.loads(blob)["value"]
            # Corrupt or stale-class entry: drop it.  Not ``except
            # Exception``: Ctrl-C, SystemExit and programming errors
            # must propagate.
            except (EOFError, KeyError, IndexError, TypeError, ValueError,
                    pickle.UnpicklingError, AttributeError, ImportError,
                    MemoryError):
                corrupt.append((key,))
        if corrupt:
            self.stats.errors += len(corrupt)
            self._store().run("DELETE FROM entries WHERE key = ?", corrupt)
        self.stats.hits += len(found)
        self.stats.misses += len(keys) - len(found)
        return found

    def store(self, key: str, value: Any) -> None:
        """Persist one point output (when the enclosing :meth:`batch` ends)."""
        entry = {"key": key, "version": self.version, "value": value}
        with self.batch():
            self._pending[key] = pickle.dumps(entry, pickle.HIGHEST_PROTOCOL)
            self.stats.stores += 1

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Buffer this handle's stores; commit them in one transaction.

        Nested batches join the outer one.  A failed commit (the file is
        not a database) is dropped: its rows move from stores to errors.
        """
        if self._pending is not None:
            yield
            return
        self._pending = {}
        try:
            yield
        finally:
            rows, self._pending = list(self._pending.items()), None
            if rows and not self._store().run(
                "INSERT OR REPLACE INTO entries VALUES (?, ?)", rows, create=True
            ):
                self.stats.stores -= len(rows)
                self.stats.errors += len(rows)

    def entry_count(self) -> int:
        """Number of committed point outputs."""
        rows = self._store().run("SELECT count(*) FROM entries")
        return rows[0][0] if rows else 0

    def total_bytes(self) -> int:
        """Size of every committed entry (its pickled bytes)."""
        rows = self._store().run("SELECT total(length(value)) FROM entries")
        return int(rows[0][0]) if rows else 0

    def clear(self) -> int:
        """Delete every committed entry; returns how many were removed.

        A cache file that cannot be used as a database is deleted, and a
        leftover v1 ``objects/`` tree is removed (neither is counted).
        Rows buffered in an open :meth:`batch` still commit after it.
        """
        shutil.rmtree(self.directory / "objects", ignore_errors=True)
        store = self._store()
        rows = store.run("DELETE FROM entries")
        if rows is not None:
            return rows[0][0]
        with store.lock:  # drop the connection, the file and its WAL
            if store.connection is not None:
                store.connection.close()
                store.connection = None
            for suffix in ("", "-wal", "-shm"):
                with suppress(OSError):
                    os.unlink(f"{self.path}{suffix}")
        return 0

    def describe(self) -> str:
        """One-paragraph summary for ``repro cache show``."""
        return (
            f"cache directory: {self.directory}\n"
            f"package version: {self.version}\n"
            f"entries: {self.entry_count()} ({self.total_bytes() / 1e6:.2f} MB)"
        )
