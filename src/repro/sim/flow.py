"""Fluid-flow network on top of the DES engine.

A :class:`FlowNetwork` owns a set of directional channels (one per
Infinity Fabric link direction, per SDMA engine, per HBM port…), each a
capacity in bytes/s, and simulates concurrent transfers as *fluid
flows*: each flow moves bytes at a rate determined by the max-min fair
allocation over the channels it crosses, re-solved whenever a flow
starts or finishes.
Between rate changes flows progress linearly, so completion times are
exact, not time-stepped.

This is the standard fluid approximation used in interconnect
modelling; it captures precisely the phenomena the paper measures —
bandwidth sharing on oversubscribed links (Fig. 4/5), bottleneck links
on multi-hop paths (Fig. 6c/10), and engine throughput caps (SDMA's
~50 GB/s plateau).

A standalone network registers its channels one by one
(:meth:`FlowNetwork.add_channel`); a simulated node's network adopts
its :class:`ChannelTable`, compiled once per topology and calibration,
in one step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Hashable, Iterable, Mapping, Sequence

from ..errors import LinkDownError, SimulationError
from .engine import Event, SimEngine, TimerHandle
from .fairshare import FairshareSolver, FlowSpec

#: Completion slop, in bytes: flows within this of zero are done.  Keeps
#: float accumulation from scheduling infinitesimal residual transfers.
_EPSILON_BYTES = 1e-6


@dataclass(frozen=True)
class ChannelTable:
    """A compiled channel inventory: ids, capacities and solver indices.

    ``channel_ids`` lists the ids in registration order; the solver
    index of a channel is its position there (``solver_ids``), and
    ``capacities`` maps each solver index to its capacity in bytes/s.
    Both mappings are read-only views, so one table can be shared by
    every network that adopts it, across threads; each adopting
    network copies the capacities, which fault injection mutates.
    """

    channel_ids: tuple[Hashable, ...]
    solver_ids: Mapping[Hashable, int]
    capacities: Mapping[int, float]

    @classmethod
    def build(cls, channels: Iterable[tuple[Hashable, float]]) -> "ChannelTable":
        """Compile ``(channel id, capacity)`` pairs, validated like
        :meth:`FlowNetwork.add_channel`."""
        solver_ids: dict[Hashable, int] = {}
        capacities: dict[int, float] = {}
        for channel_id, capacity in channels:
            _check_new_channel(solver_ids, channel_id, capacity)
            index = solver_ids[channel_id] = len(capacities)
            capacities[index] = capacity
        return cls(
            tuple(solver_ids),
            MappingProxyType(solver_ids),
            MappingProxyType(capacities),
        )


def _check_new_channel(
    registered: Mapping[Hashable, int], channel_id: Hashable, capacity: float
) -> None:
    """Reject a duplicate id or a capacity that is not strictly positive.

    The error surfaces at registration, not later mid-solve; links can
    only *become* zero-capacity (failed) through
    :meth:`FlowNetwork.set_capacity`.
    """
    if channel_id in registered:
        raise SimulationError(f"channel {channel_id!r} already exists")
    if not capacity > 0:  # also rejects NaN
        raise SimulationError(
            f"channel {channel_id!r} capacity must be positive, got {capacity!r}"
        )


class Flow:
    """A live transfer: ``size`` bytes across ``channels`` at ≤ ``cap``.

    ``done`` is an engine event that triggers (with the flow) when the
    last byte arrives.  ``rate`` is the currently allocated rate and is
    only meaningful while the flow is active.  ``remaining`` is current
    as of the network's last advance (the last flow start, completion
    or capacity change) and exactly 0.0 once complete; the flow counts
    as done within ``threshold`` bytes of zero.
    """

    __slots__ = (
        "flow_id",
        "channels",
        "cap",
        "size",
        "remaining",
        "rate",
        "done",
        "start_time",
        "finish_time",
        "label",
        "span",
        "blame_key",
        "threshold",
    )

    def __init__(
        self,
        flow_id: int,
        channels: tuple[Hashable, ...],
        cap: float,
        size: float,
        done: Event,
        start_time: float,
        label: str = "",
    ) -> None:
        self.flow_id = flow_id
        self.channels = channels
        self.cap = cap
        self.size = size
        self.remaining = float(size)
        self.rate = 0.0
        self.done = done
        self.start_time = start_time
        self.finish_time: float | None = None
        self.label = label
        self.span: "Any" = None
        self.blame_key = ""
        self.threshold = _EPSILON_BYTES * max(1.0, size)

    @property
    def completed(self) -> bool:
        """Whether the last byte has arrived."""
        return self.finish_time is not None

    @property
    def elapsed(self) -> float | None:
        """Transfer duration, or ``None`` while active."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    @property
    def achieved_rate(self) -> float | None:
        """Average bytes/s over the whole transfer, once complete.

        ``None`` while in flight *and* for degenerate zero-duration
        transfers (e.g. zero-byte flows), whose average rate is
        undefined — consumers skip ``None`` instead of propagating
        ``inf`` into metrics and reports.
        """
        elapsed = self.elapsed
        if elapsed is None or elapsed == 0:
            return None
        return self.size / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.completed else f"{self.remaining:.0f}B left"
        return f"<Flow {self.flow_id} {self.label!r} {state}>"


class FlowNetwork:
    """The set of channels plus all currently active flows.

    Rate allocation runs through a persistent
    :class:`~repro.sim.fairshare.FairshareSolver`: flow arrivals and
    departures re-level only the connected component they touch, by
    replaying the component's last solve trace where the change cannot
    reach.  Re-levels are *epoch-deferred*: all churn within one engine
    epoch coalesces into a single application of rates, flushed before
    simulated time can advance.  The single pending completion alarm is
    cancelled (lazily, O(1)) whenever a rate change supersedes it.

    Each flow's live state (remaining bytes, rate, completion
    threshold) has one copy, on its :class:`Flow`.  Every constant-rate
    interval advances ``remaining -= rate * dt`` over the live flows,
    so ``Flow.remaining`` is current as of the last advance and exact
    (0.0) on completion.

    ``tests/sim/flow_oracle.py`` holds the reference this is
    differential-tested against: per-flow integration and a batch
    re-solve on every event.
    """

    def __init__(
        self,
        engine: SimEngine,
        *,
        metrics: "Any" = None,
        spans: "Any" = None,
        channels: ChannelTable | None = None,
    ) -> None:
        self.engine = engine
        self._active: dict[int, Flow] = {}
        self._flow_ids = itertools.count()
        self._last_update = 0.0
        self._alarm: TimerHandle | None = None
        self._alarm_at = math.inf
        # Epoch deferral: rates re-leveled this epoch, applied by one
        # zero-delay flush timer (see _defer_resolve).
        self._pending: dict[Hashable, float] | None = None
        self._flush_scheduled = False
        if metrics is None:
            from ..obs.metrics import NULL_METRICS

            metrics = NULL_METRICS
        self._metrics = metrics
        if spans is None:
            from ..obs.spans import NULL_SPANS

            spans = NULL_SPANS
        self._spans = spans
        # Bottleneck tracking is the span layer's data source; leave it
        # off otherwise so the disabled path stays within the perf guard.
        self._solver = FairshareSolver(track_bottlenecks=bool(spans))
        # The solver sees dense int channel ids (cheap to hash, unlike
        # tuples such as ('link', 'gcd0-gcd1:quad', 'fwd')); flows,
        # metrics and blame keys keep the original ids.  Capacities
        # live only in the solver, by dense id.
        self._table = channels
        if channels is None:
            self._solver_ids: Mapping[Hashable, int] = {}
            self._channel_ids: Sequence[Hashable] = []
        else:
            self._solver_ids = channels.solver_ids
            self._channel_ids = channels.channel_ids
            self._solver.adopt_capacities(channels.capacities)
        #: Blame-bucket names by solver channel id (aliases included).
        self._blame_names: dict[int, str] = {}

    @property
    def solver(self) -> FairshareSolver:
        """The live incremental solver (stats live on ``solver.stats``).

        Its channel ids are dense ints in registration order, not the
        network's channel ids.
        """
        return self._solver

    # -- channel management --------------------------------------------------

    def add_channel(self, channel_id: Hashable, capacity: float) -> None:
        """Register a channel on a standalone network.

        Duplicate ids or capacities that are not strictly positive
        raise here, at construction, not later mid-solve.  A network
        built from a :class:`ChannelTable` takes no further channels.
        """
        if self._table is not None:
            raise SimulationError(
                f"cannot add channel {channel_id!r}: this network adopted "
                "a compiled channel table"
            )
        _check_new_channel(self._solver_ids, channel_id, capacity)
        index = self._solver_ids[channel_id] = len(self._channel_ids)
        self._channel_ids.append(channel_id)
        self._solver.add_channel(index, capacity)

    def _index(self, channel_id: Hashable) -> int:
        """Solver id of a registered channel; unknown ids raise."""
        index = self._solver_ids.get(channel_id)
        if index is None:
            raise SimulationError(f"unknown channel {channel_id!r}")
        return index

    def set_capacity(self, channel_id: Hashable, capacity: float) -> None:
        """Change a channel's capacity mid-run, re-leveling in-flight flows.

        The incremental solver re-levels only the connected component
        crossing the channel, bit-identical to tearing every flow down
        and re-adding it under the new capacity (differential-tested).

        ``capacity == 0`` models a failed link: every in-flight flow
        crossing the channel fails — its ``done`` event raises
        :class:`~repro.errors.LinkDownError` into whatever process is
        waiting on it — and new transfers requesting the channel raise
        the same error up front.  Survivors sharing channels with the
        failed flows are re-leveled (they typically speed up).
        """
        index = self._index(channel_id)
        if not capacity >= 0:  # also rejects NaN
            raise SimulationError(
                f"channel {channel_id!r} capacity must be non-negative, "
                f"got {capacity!r}"
            )
        if capacity == self._solver._capacities[index]:
            return
        self._advance_to_now()
        failed: list[Flow] = []
        updated: dict[Hashable, float] = {}
        if capacity == 0:
            failed = [
                flow
                for flow in self._active.values()
                if channel_id in flow.channels
            ]
            for flow in failed:
                del self._active[flow.flow_id]
                updated.update(self._solver.remove_flow(flow.flow_id))
                flow.rate = 0.0
        updated.update(self._solver.set_capacity(index, capacity))
        if self._metrics:
            self._metrics.counter("network/capacity_changes").inc()
            if failed:
                self._metrics.counter("network/flows_failed").inc(len(failed))
        # Merge with any earlier churn this epoch, then apply now: fault
        # semantics (survivor speed-ups, failure ordering) are
        # synchronous, and capacity changes are rare enough that
        # deferring them buys nothing.
        self._defer_resolve(updated)
        self.flush_pending()
        for flow in failed:
            flow.done.fail(
                LinkDownError(
                    f"flow {flow.flow_id} ({flow.label or 'unlabelled'}) "
                    f"lost channel {channel_id!r}: link failed"
                )
            )

    def set_blame_alias(self, channel_id: Hashable, alias: str) -> None:
        """Override the blame-bucket name flows frozen at a channel get.

        Fault injection uses this so degraded links show up in
        ``repro explain`` as e.g. ``fault:link-degrade:1->3`` instead of
        their plain channel name.  Takes effect at the next re-level.
        """
        self._blame_names[self._index(channel_id)] = alias

    def clear_blame_alias(self, channel_id: Hashable) -> None:
        """Drop a blame alias; the plain metric name is re-derived lazily."""
        index = self._solver_ids.get(channel_id)
        if index is not None:
            self._blame_names.pop(index, None)

    def has_channel(self, channel_id: Hashable) -> bool:
        """Whether a channel id is registered."""
        return channel_id in self._solver_ids

    def capacity(self, channel_id: Hashable) -> float:
        """Current capacity of a channel in bytes/s; unknown ids raise."""
        return self._solver._capacities[self._index(channel_id)]

    def capacities(self) -> dict[Hashable, float]:
        """``{channel id: capacity}`` snapshot, in registration order."""
        capacities = self._solver._capacities
        return {cid: capacities[i] for cid, i in self._solver_ids.items()}

    # -- flow lifecycle ---------------------------------------------------------

    def transfer(
        self,
        channels: Iterable[Hashable],
        size: float,
        *,
        cap: float = math.inf,
        label: str = "",
        span: "Any" = None,
    ) -> Flow:
        """Start a flow of ``size`` bytes; returns the live :class:`Flow`.

        Zero-byte transfers complete immediately (their ``done`` event
        still goes through the queue, preserving FIFO semantics).
        ``span``, when span recording is on, binds the flow to a causal
        span: every constant-rate interval the flow lives through is
        charged to the span's blame ledger under the channel (or cap)
        the fair-share solver froze the flow at.
        """
        channel_ids = tuple(channels)
        solver_ids = self._solver_ids
        capacities = self._solver._capacities
        route: list[int] = []
        for channel_id in channel_ids:
            index = solver_ids.get(channel_id)
            if index is None:
                raise SimulationError(f"unknown channel {channel_id!r}")
            if capacities[index] <= 0:
                raise LinkDownError(
                    f"channel {channel_id!r} is down (capacity 0); "
                    f"cannot start transfer {label!r}"
                )
            route.append(index)
        if not size >= 0:  # also rejects NaN
            raise SimulationError(
                f"transfer size must be non-negative, got {size!r}"
            )
        if not cap > 0:  # also rejects NaN; checked before any state changes
            raise SimulationError(f"transfer cap must be positive, got {cap!r}")
        if not channel_ids and cap == math.inf:
            raise SimulationError("flow needs at least one channel or a cap")

        flow = Flow(
            next(self._flow_ids),
            channel_ids,
            cap,
            size,
            self.engine.event(),
            self.engine.now,
            label,
        )
        if span is not None and self._spans:
            flow.span = span
        if size == 0:
            flow.finish_time = self.engine.now
            flow.done.succeed(flow)
            return flow

        self._advance_to_now()
        self._active[flow.flow_id] = flow
        metrics = self._metrics
        if metrics:
            metrics.counter("network/flows_started").inc()
            metrics.counter("network/bytes_requested").inc(size)
            for channel_id in dict.fromkeys(channel_ids):  # count repeats once
                metrics.channel(
                    channel_id, capacities[solver_ids[channel_id]]
                ).flows += 1
        updated = self._solver.add_flow(FlowSpec(flow.flow_id, tuple(route), cap))
        self._defer_resolve(updated)
        return flow

    def active_flows(self) -> Sequence[Flow]:
        """Flows currently in flight, in start order.

        Applies any deferred re-level first, so rates are current;
        ``Flow.remaining`` is as of the network's last advance.
        """
        self.flush_pending()
        return list(self._active.values())

    def utilization(self, channel_id: Hashable) -> float:
        """Fraction of a channel's capacity currently allocated.

        Edge cases: an unbounded (``inf``-capacity) channel is never
        utilized — 0.0 by definition; a failed (zero-capacity) channel
        reports 1.0 while flows are still pinned on it and 0.0 when
        idle, rather than dividing by zero.
        """
        capacity = self.capacity(channel_id)
        self.flush_pending()
        occupied = False
        load = 0.0
        for f in self._active.values():
            if channel_id in f.channels:
                occupied = True
                load += f.rate
        if not math.isfinite(capacity):
            return 0.0
        if capacity <= 0:
            return 1.0 if occupied else 0.0
        return load / capacity

    # -- internals -----------------------------------------------------------------

    def _advance_to_now(self) -> None:
        """Account for bytes moved since the last rate change."""
        now = self.engine.now
        dt = now - self._last_update
        if dt < 0:
            raise SimulationError("flow network clock went backwards")
        if dt > 0:
            if self._pending is not None:
                # Unreachable by construction: the flush timer runs in
                # the epoch that deferred, before time can advance.
                raise SimulationError(
                    "deferred re-level survived its epoch; engine "
                    "epoch ordering is broken"
                )
            if self._active and (self._metrics or self._spans):
                if self._metrics:
                    self._account_interval(self._last_update, dt)
                if self._spans:
                    self._account_spans(self._last_update, dt)
            for flow in self._active.values():
                flow.remaining -= flow.rate * dt
        self._last_update = now

    def _account_interval(self, start: float, dt: float) -> None:
        """Fold one constant-rate interval into the metrics registry.

        Flows keep their rate between topology changes, so summing
        ``rate × dt`` per channel here (every ``_advance_to_now``) is
        exact — the same integral the flows themselves advance by.
        """
        per_channel: dict[Hashable, list] = {}
        for flow in self._active.values():
            rate = flow.rate
            for channel_id in flow.channels:
                entry = per_channel.get(channel_id)
                if entry is None:
                    per_channel[channel_id] = [rate, 1, flow]
                elif entry[2] is not flow:  # a route may repeat a channel
                    entry[0] += rate
                    entry[1] += 1
                    entry[2] = flow
        metrics = self._metrics
        solver_ids = self._solver_ids
        capacities = self._solver._capacities
        for channel_id, (load, nflows, _) in per_channel.items():
            metrics.channel(channel_id, capacities[solver_ids[channel_id]]).account(
                start, dt, load, int(nflows)
            )

    def _account_spans(self, start: float, dt: float) -> None:
        """Charge one constant-rate interval to every span-bound flow.

        ``blame_key`` was fixed at the last re-level (the channel the
        solver froze the flow at, or its cap), so each interval lands
        in exactly one blame bucket — work conservation says the flow
        was limited by *something* for the whole interval.
        """
        for flow in self._active.values():
            span = flow.span
            if span is not None:
                span.account(start, dt, flow.rate, flow.blame_key)

    def _defer_resolve(self, updated: Mapping[Hashable, float]) -> None:
        """Coalesce a churn event into this epoch's single re-level.

        Solver state (flow set, rates, traces) is already updated
        eagerly by the caller — only the *application* of rates to
        flows, the min-ETA scan, and the alarm re-arm are deferred.
        The flush rides a zero-delay timer, which the engine appends to
        the currently-dispatching epoch: it runs after every
        already-queued event of this instant and before simulated time
        can advance, so integration never sees a stale rate across a
        non-zero interval.  Within the epoch all intervals have zero
        duration, which is why deferral is invisible in completion
        times (differential-tested against the per-event oracle).
        """
        pending = self._pending
        if pending is None:
            self._pending = pending = {}
        pending.update(updated)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.engine.call_after(0.0, self._flush)

    def _flush(self) -> None:
        """Apply the epoch's coalesced re-level (idempotent)."""
        self._flush_scheduled = False
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        # Ops later in the epoch may have re-leveled a flow again (or
        # removed it); the solver's live table is authoritative.
        rates = self._solver._rates
        for flow_id in pending:
            rate = rates.get(flow_id)
            if rate is not None:
                pending[flow_id] = rate
        self._resolve_and_schedule(pending)

    def flush_pending(self) -> None:
        """Apply any deferred re-level immediately (read-your-writes).

        Safe to call outside engine dispatch; the epoch's queued flush
        timer then finds nothing to do.  Readers that surface per-flow
        rates call this so epoch deferral is observationally equivalent
        to per-event solving.
        """
        if self._pending is not None:
            self._flush()

    def _resolve_and_schedule(self, updated: Mapping[Hashable, float]) -> None:
        """Apply re-leveled rates and (re)arm the next completion alarm.

        ``updated`` carries the rates of the component(s) the solver
        just re-leveled; flows outside it keep their cached rate.
        """
        # An alarm already due in this epoch stays queued where it is:
        # it re-arms from fresh state when it fires.  Cancelling it
        # would let a flow that is done to within epsilon re-arm at
        # ``now + remaining/rate`` — one ulp late — whenever a re-level
        # lands before the alarm in the same epoch (``set_capacity``
        # applies its re-level synchronously).
        keep_alarm = False
        if self._alarm is not None:
            if self._alarm_at == self.engine.now:
                keep_alarm = True
            else:
                self._alarm.cancel()
                self._alarm = None
        if self._metrics:
            self._metrics.counter("network/rate_changes").inc()
        active = self._active
        if not active:
            return
        # The solver tracked freeze reasons (spans on) during the
        # re-level that produced ``updated``; read them in place.
        bottlenecks = self._solver._bottlenecks if self._spans else None
        for flow_id, rate in updated.items():
            flow = active.get(flow_id)
            if flow is None:
                continue  # departed with a later removal in this batch
            if rate <= 0:
                raise SimulationError(
                    f"flow {flow_id} starved (rate 0); check channel capacities"
                )
            flow.rate = rate
            if bottlenecks is not None:
                flow.blame_key = self._blame_key(bottlenecks.get(flow_id), flow)
        if keep_alarm:
            return
        # Next completion: min over remaining/rate (rates are strictly
        # positive, so every operand is NaN-free).
        next_completion = min(
            flow.remaining / flow.rate for flow in active.values()
        )
        next_completion = max(next_completion, 0.0)
        self._alarm = self.engine.schedule(next_completion, self._on_completion_alarm)
        self._alarm_at = self.engine.now + next_completion

    def _blame_key(self, bottleneck: int | None, flow: Flow) -> str:
        """Flattened blame-bucket name for a solver freeze reason.

        ``bottleneck`` is the solver's channel id; the original channel
        id flattens exactly like metric names (so blame keys line up
        with ``ChannelUsage`` entries).  A ``None`` bottleneck means the
        flow froze at its own cap.
        """
        if bottleneck is None:
            return f"cap:{flow.label or 'flow'}"
        key = self._blame_names.get(bottleneck)
        if key is None:
            from ..obs.metrics import metric_name

            key = metric_name(self._channel_ids[bottleneck])
            self._blame_names[bottleneck] = key
        return key

    def _on_completion_alarm(self) -> None:
        self._alarm = None
        self._advance_to_now()
        # ``_active`` iterates in flow-id (creation) order: ids come
        # from one counter and ``transfer`` is the only insertion, so
        # solver removals and done-event deliveries fire in a
        # deterministic sequence.
        finished = [
            flow
            for flow in self._active.values()
            if flow.remaining <= flow.threshold
        ]
        if not finished:
            # Rounding pushed the completion infinitesimally later;
            # rescheduling from the fresh state converges.
            self._resolve_and_schedule({})
            return
        if self._metrics:
            self._metrics.counter("network/flows_completed").inc(len(finished))
        updated: dict[Hashable, float] = {}
        for flow in finished:
            del self._active[flow.flow_id]
            updated.update(self._solver.remove_flow(flow.flow_id))
            flow.remaining = 0.0
            flow.rate = 0.0
            flow.finish_time = self.engine.now
        # Deliver the completions *before* scheduling the flush: the
        # ``done`` deliveries then sit ahead of the flush timer in this
        # epoch, so transfers started by resumed processes merge their
        # re-level into the same flush — one solve for the completion
        # plus everything it triggers, instead of one for the removal
        # and one per follow-on add.
        for flow in finished:
            flow.done.succeed(flow)
        self._defer_resolve(updated)
