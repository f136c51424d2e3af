"""A minimal, deterministic process-based discrete-event kernel.

The design follows the SimPy model but is intentionally small: events
carry callbacks, processes are Python generators that *yield* events,
and the engine advances a simulated clock over a time-bucketed event
queue.  Determinism is guaranteed by FIFO dispatch within a timestamp:
occurrences scheduled for the same instant fire in scheduling order,
exactly as a ``(time, sequence)`` heap would order them.

Typical use::

    engine = SimEngine()

    def worker(engine):
        yield engine.timeout(1e-6)          # sleep 1 us
        done = engine.event()
        engine.call_after(2e-6, done.succeed, "payload")
        value = yield done                  # wait for a signal
        return value

    proc = engine.process(worker(engine))
    engine.run()
    assert proc.value == "payload"

Every drain goes through one loop, :meth:`SimEngine.run`, which is
tuned for event throughput — it dominates figure sweeps with hundreds
of concurrent flows:

- The queue is an *epoch queue*: a dict of ``time -> [items]`` buckets
  plus a min-heap of the **distinct** pending times.  All occurrences
  sharing a timestamp are popped as one batch (an *epoch*) and
  dispatched in FIFO sequence order, so the clock advances once per
  epoch instead of once per event, scheduling another item at an
  already-pending time is an O(1) list append (no heap sift), and
  zero-delay occurrences scheduled *during* an epoch append directly
  to the live epoch buffer — the common ``succeed()``-at-now case
  never touches the heap at all.
- Everything that is not per-item work happens once per epoch: the
  ``run(until=...)`` bound (an epoch later than ``until`` stays queued
  and the clock parks at ``until``), the scheduled-in-the-past guard,
  and, when metrics are on, one ``engine/heap_depth`` sample.
- ``call_after`` schedules a pooled ``__slots__``-tight timer record
  instead of a full :class:`Timeout` event plus closure; fired records
  return to a free-list and are reused.
- :meth:`SimEngine.schedule` returns a cancellable :class:`TimerHandle`
  whose cancellation is *lazy*: the queued record stays put and dead
  records are skimmed in bulk (without firing, without clock movement)
  as their epoch dispatches, so cancelling costs O(1).
- Event callback lists are allocated lazily — an event nobody
  subscribes to never allocates one.

Only the features the library needs are implemented; unsupported uses
raise :class:`repro.errors.SimulationError` rather than misbehaving.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable

from ..errors import SchedulingError, SimulationError

ProcessGenerator = Generator["Event", Any, Any]


class Event:
    """A one-shot occurrence with a value and subscriber callbacks.

    Events start *pending*; exactly one of :meth:`succeed` or
    :meth:`fail` transitions them to *triggered*, after which the engine
    delivers them to subscribers at the current simulation time.
    """

    __slots__ = ("engine", "_callbacks", "_triggered", "_delivered", "value", "_failure")

    def __init__(self, engine: "SimEngine") -> None:
        self.engine = engine
        self._callbacks: list[Callable[["Event"], None]] | None = None
        self._triggered = False
        self._delivered = False
        self.value: Any = None
        self._failure: BaseException | None = None

    @property
    def triggered(self) -> bool:
        """Whether succeed()/fail() has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether callbacks have been delivered."""
        return self._delivered

    @property
    def ok(self) -> bool:
        """Triggered successfully (no failure)."""
        return self._triggered and self._failure is None

    @property
    def failure(self) -> BaseException | None:
        """The failure exception, or ``None``."""
        return self._failure

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self.value = value
        self.engine._schedule_delivery(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see the exception raised."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._failure = exception
        self.engine._schedule_delivery(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Subscribe; fires immediately (at delivery) if already delivered."""
        if self._delivered:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def _discard_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._callbacks is not None:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass

    def _deliver(self) -> None:
        if self._delivered:
            raise SimulationError("event delivered twice")
        self._delivered = True
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "SimEngine", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"timeout must be non-negative, got {delay!r}")
        super().__init__(engine)
        self.delay = delay
        self._triggered = True
        self.value = value
        engine._schedule_delivery(self, delay=delay)


class TimerHandle:
    """A scheduled callback with O(1) lazy cancellation.

    Returned by :meth:`SimEngine.schedule`.  :meth:`cancel` marks the
    record; the engine discards it (without firing) when its epoch
    dispatches, so cancellation never reshapes the queue.
    """

    __slots__ = ("callback", "args", "cancelled", "_pooled")

    def __init__(
        self,
        callback: Callable[..., Any] | None,
        args: tuple[Any, ...],
        pooled: bool,
    ) -> None:
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._pooled = pooled

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent, O(1))."""
        self.cancelled = True
        self.callback = None
        self.args = ()


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator; also an event that triggers on return.

    The generator yields :class:`Event` instances and is resumed with
    the event's value (or the failure exception thrown in).  The
    process's own event value is the generator's return value.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(
        self, engine: "SimEngine", generator: ProcessGenerator, name: str = ""
    ) -> None:
        super().__init__(engine)
        self._generator = generator
        self._waiting_on: Event | None = None
        self.name = name or getattr(generator, "__name__", "process")
        # Start the process at the current time, but via the event queue
        # so creation order is preserved deterministically.
        bootstrap = Timeout(engine, 0.0)
        bootstrap.add_callback(self._resume)
        self._waiting_on = bootstrap

    @property
    def is_alive(self) -> bool:
        """Whether the generator is still running."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        waiting = self._waiting_on
        self._waiting_on = None
        # Detach from whatever we were waiting on: the stale callback
        # must become a no-op.
        if waiting is not None:
            waiting._discard_callback(self._resume)
        wakeup = Timeout(self.engine, 0.0)
        wakeup.add_callback(lambda _evt: self._step(throw=Interrupt(cause)))

    def _resume(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale wake-up after an interrupt
        self._waiting_on = None
        if event._failure is not None:
            self._step(throw=event._failure)
        else:
            self._step(send=event.value)

    def _step(self, send: Any = None, throw: BaseException | None = None) -> None:
        try:
            if throw is not None:
                target = self._generator.throw(throw)
            else:
                target = self._generator.send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # An unhandled interrupt terminates the process quietly.
            self.succeed(None)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, not an Event"
            )
        if target.engine is not self.engine:
            raise SimulationError("process yielded an event from another engine")
        self._waiting_on = target
        target.add_callback(self._resume)


class AllOf(Event):
    """Triggers when all component events have triggered.

    Value is the list of component values in input order.  Fails fast
    on the first component failure.
    """

    __slots__ = ("_pending", "_events")

    def __init__(self, engine: "SimEngine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed([])
            return
        for event in self._events:
            event.add_callback(self._on_component)

    def _on_component(self, event: Event) -> None:
        if self._triggered:
            return
        if event._failure is not None:
            self.fail(event._failure)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e.value for e in self._events])


class AnyOf(Event):
    """Triggers when the first component event triggers.

    Value is ``(index, value)`` of the winning component.
    """

    __slots__ = ("_events",)

    def __init__(self, engine: "SimEngine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf requires at least one event")
        for index, event in enumerate(self._events):
            event.add_callback(lambda evt, i=index: self._on_component(i, evt))

    def _on_component(self, index: int, event: Event) -> None:
        if self._triggered:
            return
        if event._failure is not None:
            self.fail(event._failure)
            return
        self.succeed((index, event.value))


#: Free-list bound: beyond this many idle timer records, extras are
#: dropped to the garbage collector instead of pooled.
_TIMER_POOL_LIMIT = 256


class SimEngine:
    """The event loop: a clock plus a deterministic epoch queue.

    The queue stores occurrences in per-timestamp FIFO buckets; a
    min-heap of the *distinct* pending times orders the buckets.  Each
    pass of :meth:`run` pops one bucket — an **epoch** — and dispatches
    its items in scheduling order, advancing the clock once (and only
    when a live item actually fires, so trailing cancelled timers never
    move time).  Items scheduled *at the current instant while its epoch
    is dispatching* are appended to the live epoch buffer directly:
    their sequence numbers are by construction higher than everything
    pending, so FIFO order is preserved without any heap traffic.  The
    dispatch order is bit-identical to the classic ``(time, sequence)``
    heap the engine used through v0.6.

    ``run(until=t)`` stops before the first epoch later than ``t`` and
    parks the clock at ``t``; that work stays queued for the next
    ``run``.  A ``t`` before :attr:`now` (or NaN) raises
    :class:`~repro.errors.SchedulingError`.

    ``metrics`` optionally attaches a
    :class:`~repro.obs.metrics.MetricsRegistry`.  When it is enabled,
    ``run`` samples ``engine/heap_depth`` (gauge and time series) once
    per popped epoch, at the epoch's timestamp, and adds one
    ``engine/runs`` tick plus the event/timer deltas to the registry's
    ``engine/*`` counters when it returns.  Both modes share the one
    loop; the disabled path pays one truthiness check per epoch.
    """

    def __init__(self, *, metrics: Any = None) -> None:
        self._now = 0.0
        #: time -> FIFO list of items (TimerHandle or Event) at that time.
        self._buckets: dict[float, list[Any]] = {}
        #: min-heap of the distinct times present in ``_buckets``.
        self._times: list[float] = []
        #: the epoch currently dispatching (bucket popped from the dict).
        self._epoch: list[Any] = []
        self._epoch_pos = 0
        self._epoch_time = 0.0
        self._running = False
        self._timer_pool: list[TimerHandle] = []
        if metrics is None:
            from ..obs.metrics import NULL_METRICS

            metrics = NULL_METRICS
        self.metrics = metrics
        # Throughput counters (read via stats(); cheap int bumps).
        self.events_delivered = 0
        self.timers_fired = 0
        self.timers_cancelled = 0

    @property
    def now(self) -> float:
        """Current simulated time, seconds."""
        return self._now

    # -- event construction -------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a generator as a process; returns its handle."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all components have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires with the first component."""
        return AnyOf(self, events)

    def _enqueue(self, when: float, item: Any) -> None:
        """Queue an item at ``when`` (absolute), preserving FIFO order.

        Fast paths, in order: appending to the epoch currently
        dispatching at ``when`` (no heap traffic at all — the common
        ``succeed()``-at-now case), appending to an existing bucket
        (O(1) — no heap sift), and only for the first item at a brand
        new time a heap push of that time.
        """
        if when == self._epoch_time and self._running:
            # Scheduled at the very instant its epoch is dispatching
            # (callbacks only run inside an epoch): every pending item
            # here has a lower sequence number, so a plain append keeps
            # (time, sequence) order exact, also from the epoch's last
            # item, since run() re-reads the epoch's length.
            self._epoch.append(item)
            return
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [item]
            heapq.heappush(self._times, when)
        else:
            bucket.append(item)

    def call_after(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds.

        Fire-and-forget: the scheduling record comes from (and returns
        to) the engine's free-list.  Use :meth:`schedule` when the
        callback may need cancelling.
        """
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"delay must be non-negative, got {delay!r}")
        pool = self._timer_pool
        if pool:
            timer = pool.pop()
            timer.callback = callback
            timer.args = args
            timer.cancelled = False
        else:
            timer = TimerHandle(callback, args, pooled=True)
        self._enqueue(self._now + delay, timer)

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Like :meth:`call_after`, but returns a cancellable handle.

        Handles are never pooled (a caller may keep one arbitrarily
        long), so cancellation can't alias a recycled record.
        """
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"delay must be non-negative, got {delay!r}")
        timer = TimerHandle(callback, args, pooled=False)
        self._enqueue(self._now + delay, timer)
        return timer

    # -- scheduling ----------------------------------------------------------

    def _schedule_delivery(self, event: Event, *, delay: float = 0.0) -> None:
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"delay must be non-negative, got {delay!r}")
        self._enqueue(self._now + delay, event)

    # -- execution -------------------------------------------------------------

    def run(self, until: float = math.inf) -> float:
        """Dispatch epochs until the queue drains or the next is past ``until``.

        The engine's only drain loop.  One pass of the outer loop starts
        one epoch: it pops the earliest bucket (or resumes the epoch a
        raising callback left part-done), checks it against ``until``
        and the clock, and, with metrics on, samples the queue depth.
        The inner loop is a tight FIFO walk with the per-item work
        inlined: cancelled-record skimming, pool recycling and the clock
        advance on the first live item.  A queue that drains before
        ``until`` leaves the clock at the last live dispatch.  Returns
        the final simulated time.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        if not until >= self._now:  # also rejects NaN
            raise SchedulingError(
                f"run(until={until!r}) would move the clock back from {self._now}"
            )
        self._running = True
        buckets = self._buckets
        times = self._times
        pool = self._timer_pool
        heappop = heapq.heappop
        metrics = self.metrics
        if metrics:
            depth = metrics.gauge("engine/heap_depth")
            depth_series = metrics.timeseries("engine/heap_depth")
        events = events_before = self.events_delivered
        fired = fired_before = self.timers_fired
        cancelled = cancelled_before = self.timers_cancelled
        epoch = self._epoch
        pos = self._epoch_pos
        when = self._epoch_time
        try:
            while True:
                if pos >= len(epoch):
                    if not times:
                        if epoch:
                            self._epoch = []
                            self._epoch_pos = 0
                        break
                    when = times[0]
                    if when > until:
                        self._now = until
                        break
                    heappop(times)
                    epoch = self._epoch = buckets.pop(when)
                    self._epoch_time = when
                    self._epoch_pos = pos = 0
                    if metrics:
                        queued = self.queue_depth()
                        depth.set(queued)
                        depth_series.observe(when, queued)
                elif when > until:
                    self._now = until
                    break
                if when < self._now - 1e-18:
                    raise SchedulingError(
                        f"event scheduled in the past ({when} < {self._now})"
                    )
                # Callbacks may append to ``epoch`` (see _enqueue), so its
                # length is re-read on every pass.
                while pos < len(epoch):
                    item = epoch[pos]
                    pos += 1
                    self._epoch_pos = pos
                    if item.__class__ is TimerHandle:
                        if item.cancelled:
                            cancelled += 1
                            if item._pooled and len(pool) < _TIMER_POOL_LIMIT:
                                item.callback = None
                                item.args = ()
                                pool.append(item)
                            continue
                        if when > self._now:
                            self._now = when
                        callback, args = item.callback, item.args
                        if item._pooled and len(pool) < _TIMER_POOL_LIMIT:
                            item.callback = None
                            item.args = ()
                            pool.append(item)
                        fired += 1
                        callback(*args)
                    else:
                        if when > self._now:
                            self._now = when
                        events += 1
                        item._deliver()
        finally:
            self.events_delivered = events
            self.timers_fired = fired
            self.timers_cancelled = cancelled
            self._running = False
            if metrics:
                metrics.counter("engine/runs").inc()
                metrics.counter("engine/events_delivered").inc(events - events_before)
                metrics.counter("engine/timers_fired").inc(fired - fired_before)
                metrics.counter("engine/timers_cancelled").inc(
                    cancelled - cancelled_before
                )
        return self._now

    def run_process(self, generator: ProcessGenerator, name: str = "") -> Any:
        """Convenience: start a process, run to completion, return its value."""
        proc = self.process(generator, name)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish (deadlock?)"
            )
        if proc.failure is not None:
            raise proc.failure
        return proc.value

    # -- introspection ----------------------------------------------------------

    def queue_depth(self) -> int:
        """Pending queued occurrences (live + lazily-cancelled)."""
        return (
            len(self._epoch)
            - self._epoch_pos
            + sum(map(len, self._buckets.values()))
        )

    def stats(self) -> dict[str, int]:
        """Throughput counters (for ``Session.stats`` and ``repro perf``)."""
        return {
            "events_delivered": self.events_delivered,
            "timers_fired": self.timers_fired,
            "timers_cancelled": self.timers_cancelled,
            "heap_size": self.queue_depth(),
        }
