"""The metrics registry: counters, gauges, time-weighted series.

The simulator's observability layer mirrors the tracer's cost model:
hot call sites hold a reference to a :class:`MetricsRegistry` and guard
with ``if metrics:`` — a *disabled* registry is falsy, so the guarded
block (and every metric object, dict lookup and float op inside it) is
never evaluated.  The shared :data:`NULL_METRICS` singleton is what
uninstrumented stacks carry, making the disabled path one attribute
load plus one branch.

Three primitive metric kinds cover the paper's questions ("which link,
engine or NUMA hop ate the bandwidth?"):

- :class:`Counter` — monotonically increasing event counts (events
  delivered, memcpy calls, XNACK faults, RCCL steps);
- :class:`Gauge` — last-value-wins levels with a running max (heap
  depth, active flows);
- :class:`TimeSeries` — a time-weighted histogram of a level over
  *simulated* time: it keeps the integral (for time-weighted means),
  the max, and a bounded ring of ``(time, value)`` samples for counter
  tracks in the Perfetto export;
- :class:`ChannelUsage` — per-channel transport accounting (bytes
  moved, busy seconds, flows carried) from which achieved-vs-peak
  utilization falls out as ``bytes / busy_seconds / capacity``.

Snapshots are plain JSON-able dicts, so worker processes can ship them
back to the :class:`~repro.runner.SweepRunner`, which folds them
together with :func:`merge_snapshots`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Hashable, Iterable, Mapping

#: Default bound on retained ``(time, value)`` samples per series.
DEFAULT_SAMPLE_CAPACITY = 4096


def metric_name(raw: Hashable) -> str:
    """Stable display name of a metric or channel id.

    Channel ids are tuples (``("link", "gcd0-gcd1:quad", "fwd")``,
    ``("sdma", 0, "out")``, ``("numaport", 1)``…); they flatten to
    ``/``-joined strings so snapshots and trace files stay JSON-able.
    """
    if isinstance(raw, str):
        return raw
    if isinstance(raw, tuple):
        return "/".join(str(part) for part in raw)
    return str(raw)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (default 1) to the count."""
        self.value += amount


class Gauge:
    """A last-value-wins level with a running maximum."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value
        if value > self.max_value:
            self.max_value = value


class TimeSeries:
    """A time-weighted value history (bounded sample retention).

    :meth:`observe` records that the level changed to ``value`` at
    simulated time ``t``; the previous level is integrated over the
    elapsed interval, so :meth:`mean` is the *time-weighted* average —
    a level held for 9 s at 10 and 1 s at 0 averages 9, not 5.  A
    time earlier than the last one (the next engine of a capture
    starting again at 0) opens a new segment: nothing is integrated
    across the restart, and the mean stays within the observed levels.
    """

    __slots__ = (
        "name",
        "integral",
        "elapsed",
        "max_value",
        "_last_t",
        "_last_v",
        "samples",
        "dropped",
    )

    def __init__(
        self, name: str, *, capacity: int | None = DEFAULT_SAMPLE_CAPACITY
    ) -> None:
        self.name = name
        self.integral = 0.0
        #: Total time integrated: the sum of the intervals between
        #: consecutive observations of each segment.
        self.elapsed = 0.0
        self.max_value = 0.0
        self._last_t: float | None = None
        self._last_v = 0.0
        self.samples: deque[tuple[float, float]] = deque(maxlen=capacity)
        #: Samples evicted by the ring buffer (summary stats still exact).
        self.dropped = 0

    def observe(self, t: float, value: float) -> None:
        """The level became ``value`` at time ``t``."""
        if self._last_t is not None:
            dt = t - self._last_t
            if dt > 0:
                self.integral += self._last_v * dt
                self.elapsed += dt
        self._last_t = t
        self._last_v = value
        if value > self.max_value:
            self.max_value = value
        if self.samples.maxlen is not None and len(self.samples) == self.samples.maxlen:
            self.dropped += 1
        self.samples.append((t, value))

    def mean(self) -> float:
        """Time-weighted mean over the integrated time (0 if none)."""
        if self.elapsed <= 0:
            return 0.0
        return self.integral / self.elapsed


class ChannelUsage:
    """Transport accounting of one flow-network channel.

    Updated by the flow network on every rate change: ``bytes`` is the
    integral of the channel's allocated rate, ``busy_seconds`` the time
    with at least one flow aboard, ``flows`` the number of flows that
    ever crossed it.  ``achieved_rate`` (bytes per busy second) against
    ``capacity`` is the paper's achieved-vs-peak utilization.
    """

    __slots__ = (
        "name",
        "capacity",
        "bytes",
        "busy_seconds",
        "flows",
        "max_concurrent_flows",
        "samples",
        "dropped",
    )

    def __init__(
        self,
        name: str,
        capacity: float,
        *,
        sample_capacity: int | None = DEFAULT_SAMPLE_CAPACITY,
    ) -> None:
        self.name = name
        self.capacity = capacity
        self.bytes = 0.0
        self.busy_seconds = 0.0
        self.flows = 0
        self.max_concurrent_flows = 0
        #: Ring of ``(interval start time, allocated bytes/s)`` samples.
        self.samples: deque[tuple[float, float]] = deque(maxlen=sample_capacity)
        self.dropped = 0

    def account(self, start: float, dt: float, rate: float, nflows: int) -> None:
        """Fold one constant-rate interval into the totals."""
        self.bytes += rate * dt
        self.busy_seconds += dt
        if nflows > self.max_concurrent_flows:
            self.max_concurrent_flows = nflows
        if self.samples.maxlen is not None and len(self.samples) == self.samples.maxlen:
            self.dropped += 1
        self.samples.append((start, rate))

    @property
    def achieved_rate(self) -> float:
        """Mean bytes/s while the channel was busy."""
        if self.busy_seconds <= 0:
            return 0.0
        return self.bytes / self.busy_seconds

    @property
    def utilization(self) -> float:
        """Achieved rate over peak capacity (busy intervals only)."""
        if self.capacity <= 0 or not math.isfinite(self.capacity):
            return 0.0
        return self.achieved_rate / self.capacity


class MetricsRegistry:
    """Holds every metric of one observed simulation.

    Falsy when disabled, so hot paths guard with ``if metrics:`` and a
    disabled registry costs one branch.  Metric objects are created on
    first use; callers should hold the returned object (or the
    registry) rather than re-looking names up in inner loops.
    """

    __slots__ = ("enabled", "sample_capacity", "_counters", "_gauges", "_series", "_channels")

    def __init__(
        self,
        enabled: bool = True,
        *,
        sample_capacity: int | None = DEFAULT_SAMPLE_CAPACITY,
    ) -> None:
        self.enabled = enabled
        self.sample_capacity = sample_capacity
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._series: dict[str, TimeSeries] = {}
        self._channels: dict[str, ChannelUsage] = {}

    def __bool__(self) -> bool:
        """Truthiness == enabled, so call sites can ``if metrics:``."""
        return self.enabled

    # -- metric factories ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The named counter (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """The named gauge (created on first use)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def timeseries(self, name: str) -> TimeSeries:
        """The named time-weighted series (created on first use)."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TimeSeries(
                name, capacity=self.sample_capacity
            )
        return series

    def channel(self, channel_id: Hashable, capacity: float) -> ChannelUsage:
        """Usage accounting of a flow-network channel (created on use)."""
        name = metric_name(channel_id)
        usage = self._channels.get(name)
        if usage is None:
            usage = self._channels[name] = ChannelUsage(
                name, capacity, sample_capacity=self.sample_capacity
            )
        return usage

    # -- views --------------------------------------------------------------

    def counters(self) -> dict[str, Counter]:
        """Name → counter mapping (live objects)."""
        return dict(self._counters)

    def gauges(self) -> dict[str, Gauge]:
        """Name → gauge mapping (live objects)."""
        return dict(self._gauges)

    def channels(self) -> dict[str, ChannelUsage]:
        """Name → channel usage mapping (live objects)."""
        return dict(self._channels)

    def series(self) -> dict[str, TimeSeries]:
        """Name → time series mapping (live objects)."""
        return dict(self._series)

    # -- snapshot -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-able summary of every metric (samples excluded)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {
                n: {"value": g.value, "max": g.max_value}
                for n, g in sorted(self._gauges.items())
            },
            "timeseries": {
                n: {
                    "mean": s.mean(),
                    "max": s.max_value,
                    "samples": len(s.samples),
                    "dropped": s.dropped,
                }
                for n, s in sorted(self._series.items())
            },
            "channels": {
                n: {
                    "capacity": u.capacity,
                    "bytes": u.bytes,
                    "busy_seconds": u.busy_seconds,
                    "flows": u.flows,
                    "max_concurrent_flows": u.max_concurrent_flows,
                    "achieved_rate": u.achieved_rate,
                    "utilization": u.utilization,
                    "samples": len(u.samples),
                    "dropped": u.dropped,
                }
                for n, u in sorted(self._channels.items())
            },
        }

    def describe(self) -> str:
        """Multi-line human summary (for ``--metrics`` output)."""
        return format_snapshot(self.snapshot())


#: The shared disabled registry uninstrumented stacks default to.
NULL_METRICS = MetricsRegistry(enabled=False, sample_capacity=0)


def resolve_metrics(
    metrics: "MetricsRegistry | bool | None",
    *,
    sample_capacity: int | None = None,
) -> MetricsRegistry:
    """Coerce a constructor argument into a registry.

    ``None``/``False`` → the shared disabled registry; ``True`` → a
    fresh enabled registry; a registry passes through.
    ``sample_capacity`` bounds the per-series sample rings of a fresh
    registry (long sweeps cap memory this way); it is ignored when an
    existing registry is handed in, since that registry already chose
    its retention.
    """
    if metrics is None or metrics is False:
        return NULL_METRICS
    if metrics is True:
        if sample_capacity is not None:
            return MetricsRegistry(enabled=True, sample_capacity=sample_capacity)
        return MetricsRegistry(enabled=True)
    return metrics


# -- snapshot folding ------------------------------------------------------


def merge_snapshots(
    base: Mapping[str, Any] | None, update: Mapping[str, Any]
) -> dict[str, Any]:
    """Fold one snapshot into another (for pool-worker aggregation).

    Counters, bytes, busy seconds and flow counts add; gauges and
    maxima take the max; channel capacities must agree (they describe
    the same hardware) and utilization is recomputed from the merged
    totals.  ``base=None`` starts a fresh accumulator.
    """
    merged: dict[str, Any] = {
        "counters": dict(base["counters"]) if base else {},
        "gauges": {k: dict(v) for k, v in base["gauges"].items()} if base else {},
        "timeseries": {k: dict(v) for k, v in base["timeseries"].items()}
        if base
        else {},
        "channels": {k: dict(v) for k, v in base["channels"].items()}
        if base
        else {},
    }
    for name, value in update.get("counters", {}).items():
        merged["counters"][name] = merged["counters"].get(name, 0) + value
    for name, gauge in update.get("gauges", {}).items():
        slot = merged["gauges"].setdefault(name, {"value": 0.0, "max": 0.0})
        slot["value"] = gauge["value"]
        slot["max"] = max(slot["max"], gauge["max"])
    for name, series in update.get("timeseries", {}).items():
        slot = merged["timeseries"].setdefault(
            name, {"mean": 0.0, "max": 0.0, "samples": 0, "dropped": 0}
        )
        # Means from disjoint runs cannot be re-weighted without the
        # windows; keep the max-of-means as an upper-bound summary.
        slot["mean"] = max(slot["mean"], series["mean"])
        slot["max"] = max(slot["max"], series["max"])
        slot["samples"] += series["samples"]
        slot["dropped"] += series["dropped"]
    for name, usage in update.get("channels", {}).items():
        slot = merged["channels"].get(name)
        if slot is None:
            merged["channels"][name] = dict(usage)
            continue
        slot["bytes"] += usage["bytes"]
        slot["busy_seconds"] += usage["busy_seconds"]
        slot["flows"] += usage["flows"]
        slot["max_concurrent_flows"] = max(
            slot["max_concurrent_flows"], usage["max_concurrent_flows"]
        )
        slot["samples"] = slot.get("samples", 0) + usage.get("samples", 0)
        slot["dropped"] = slot.get("dropped", 0) + usage.get("dropped", 0)
        busy = slot["busy_seconds"]
        slot["achieved_rate"] = slot["bytes"] / busy if busy > 0 else 0.0
        capacity = slot["capacity"]
        slot["utilization"] = (
            slot["achieved_rate"] / capacity if capacity > 0 else 0.0
        )
    return merged


def format_snapshot(snapshot: Mapping[str, Any], *, top: int = 12) -> str:
    """Human-readable rendering of a snapshot (for the CLI)."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<40s} {value:>14,.0f}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges (value / max):")
        for name, gauge in sorted(gauges.items()):
            lines.append(
                f"  {name:<40s} {gauge['value']:>10,.0f} / {gauge['max']:>10,.0f}"
            )
    channels = snapshot.get("channels", {})
    busy = [
        (name, usage)
        for name, usage in channels.items()
        if usage["busy_seconds"] > 0
    ]
    if busy:
        busy.sort(key=lambda item: item[1]["bytes"], reverse=True)
        shown = busy[:top]
        lines.append(
            f"channels by bytes moved (top {len(shown)} of {len(busy)} busy):"
        )
        for name, usage in shown:
            lines.append(
                f"  {name:<40s} {usage['bytes'] / 1e9:>9.3f} GB  "
                f"{usage['achieved_rate'] / 1e9:>7.2f} GB/s achieved  "
                f"{usage['utilization'] * 100:>5.1f}% of peak  "
                f"({usage['flows']} flow(s))"
            )
    if not lines:
        return "no metrics recorded"
    return "\n".join(lines)
