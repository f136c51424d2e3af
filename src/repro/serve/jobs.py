"""Async job queue of the simulation service.

A :class:`Job` is one accepted request (run/sweep/whatif/shadow)
moving through ``queued → running → done|failed``; every transition
and progress beat is appended to the job's *event log*, which the
``GET /v1/jobs/<id>/events`` NDJSON stream replays and tails.  The
:class:`JobQueue` is a bounded FIFO drained by a small pool of worker
threads — bounded, because an unbounded queue converts overload into
unbounded latency; a full queue is an admission failure
(:class:`QueueFullError` → HTTP 429) the client can retry against.

Jobs execute in *threads*, not processes: each executes through its
own :class:`~repro.runner.SweepRunner` against the shared
content-addressed result store, so concurrent identical queries
deduplicate at the cache and the working set stays warm across
tenants.  The ambient :class:`~repro.context.SimContext` (topology,
faults, algorithm, observation) is a ``ContextVar`` — per thread — so
concurrent sessions cannot leak configuration into each other.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import BenchmarkError


class JobState:
    """Lifecycle states (plain strings, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    TERMINAL = frozenset({DONE, FAILED})


class QueueFullError(BenchmarkError):
    """The bounded job queue cannot admit another job right now."""

    def __init__(self, depth: int, capacity: int) -> None:
        super().__init__(
            f"job queue is full ({depth}/{capacity} queued); retry shortly"
        )
        self.depth = depth
        self.capacity = capacity


@dataclass
class Job:
    """One accepted request and its full lifecycle record."""

    id: str
    kind: str
    tenant: str
    request: dict[str, Any]
    state: str = JobState.QUEUED
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    result: Any = None
    error: str | None = None
    #: Monotonic submit instant, for latency accounting.
    submitted_at: float = field(default_factory=time.perf_counter)
    #: Queue wait + execution, seconds (set when the job finishes).
    latency: float | None = None

    def __post_init__(self) -> None:
        self._condition = threading.Condition()
        self._events: list[dict[str, Any]] = []
        self.add_event("queued", tenant=self.tenant, kind=self.kind)

    # -- events ---------------------------------------------------------

    def add_event(self, event: str, **detail: Any) -> None:
        """Append one event beat and wake any streaming readers."""
        with self._condition:
            self._events.append(
                {
                    "seq": len(self._events),
                    "job": self.id,
                    "event": event,
                    "t": time.time(),
                    **detail,
                }
            )
            self._condition.notify_all()

    def events_since(self, seq: int) -> list[dict[str, Any]]:
        """Events with ``seq >= seq`` (a snapshot, safe to serialize)."""
        with self._condition:
            return [dict(e) for e in self._events[seq:]]

    def wait_event(self, seq: int, timeout: float | None = None) -> bool:
        """Block until an event with ``seq`` exists (or timeout)."""
        with self._condition:
            return self._condition.wait_for(
                lambda: len(self._events) > seq, timeout=timeout
            )

    # -- lifecycle ------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in JobState.TERMINAL

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        with self._condition:
            return self._condition.wait_for(lambda: self.done, timeout=timeout)

    def mark_running(self) -> None:
        """Transition queued → running (worker picked the job up)."""
        self.state = JobState.RUNNING
        self.started = time.time()
        self.add_event("running")

    def mark_done(self, result: Any) -> None:
        """Record the result and transition to ``done``."""
        self.result = result
        self.finished = time.time()
        self.latency = time.perf_counter() - self.submitted_at
        self.state = JobState.DONE
        self.add_event("done", seconds=self.latency)

    def mark_failed(self, error: BaseException) -> None:
        """Record the failure and transition to ``failed``."""
        self.error = f"{type(error).__name__}: {error}"
        self.finished = time.time()
        self.latency = time.perf_counter() - self.submitted_at
        self.state = JobState.FAILED
        self.add_event("failed", error=self.error)

    # -- serialization --------------------------------------------------

    def as_dict(self, *, include_result: bool = True) -> dict[str, Any]:
        """JSON-able job summary (the ``GET /v1/jobs/<id>`` body)."""
        out: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "tenant": self.tenant,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "latency_seconds": self.latency,
            "events": len(self._events),
        }
        if self.error is not None:
            out["error"] = self.error
        if include_result and self.state == JobState.DONE:
            out["result"] = self.result
        return out


_SENTINEL: Any = object()


class JobQueue:
    """Bounded FIFO of jobs drained by ``workers`` threads."""

    def __init__(
        self,
        executor: Callable[[Job], Any],
        *,
        workers: int = 4,
        capacity: int = 256,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._executor = executor
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._lock = threading.Lock()
        self._depth = 0
        self._in_flight = 0
        self._closed = False
        self._ids = itertools.count(1)
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- introspection --------------------------------------------------

    @property
    def depth(self) -> int:
        """Jobs admitted but not yet picked up by a worker."""
        return self._depth

    @property
    def in_flight(self) -> int:
        """Jobs currently executing on a worker thread."""
        return self._in_flight

    def next_id(self) -> str:
        """The next monotonically-increasing job id (``j000001`` …)."""
        return f"j{next(self._ids):06d}"

    # -- submission -----------------------------------------------------

    def submit(self, job: Job) -> Job:
        """Enqueue an already-validated job.

        Raises :class:`QueueFullError` when the bounded queue is at
        capacity — the caller maps that to backpressure (HTTP 429).
        """
        with self._lock:
            if self._closed:
                raise QueueFullError(self._depth, self.capacity)
            if self._depth >= self.capacity:
                raise QueueFullError(self._depth, self.capacity)
            self._depth += 1
        self._queue.put(job)
        return job

    # -- worker loop ----------------------------------------------------

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                return
            job: Job = item
            with self._lock:
                self._depth -= 1
                self._in_flight += 1
            try:
                job.mark_running()
                try:
                    job.mark_done(self._executor(job))
                except Exception as exc:  # noqa: BLE001 - job isolation:
                    # one bad request must not take down the worker.
                    job.mark_failed(exc)
            finally:
                with self._lock:
                    self._in_flight -= 1

    # -- shutdown -------------------------------------------------------

    def close(self, *, drain: bool = True) -> None:
        """Stop the workers.

        With ``drain=True`` (graceful shutdown) already-queued jobs
        finish first: each worker eats the queue until it reaches its
        sentinel.  The queue refuses new submissions either way.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if not drain:
            # Drop everything still queued; their clients see QUEUED
            # forever, which is why non-drain close is test-only.
            try:
                while True:
                    self._queue.get_nowait()
            except queue.Empty:
                pass
            with self._lock:
                self._depth = 0
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        for thread in self._threads:
            thread.join()
