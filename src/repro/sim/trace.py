"""Structured timeline tracing.

Benchmarks don't need tracing to produce their numbers (those come off
the simulated clock), but traces make the simulator explainable: every
transfer, kernel, fault and collective step can be recorded and dumped
as a timeline, which the examples use to show *why* a placement or
interface behaves the way it does.

The simulator has one producer of timeline records: a finished causal
span (:meth:`repro.obs.spans.SpanRecorder.finish`) appends one record
to the tracer attached to its recorder, with the span's name as the
label and its meta as the detail.  No runtime call site records on its
own, so tracing costs nothing beyond span recording, and nothing at
all when no tracer is attached.  An enabled tracer can optionally run
as a bounded ring buffer (``capacity=N``) so long sweeps keep only the
most recent records instead of growing without bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from ..units import format_time


@dataclass(frozen=True)
class TraceRecord:
    """One timeline entry.

    ``category`` groups records (``"memcpy"``, ``"kernel"``,
    ``"fault"``, ``"mpi"``, ``"rccl"``…); ``detail`` carries free-form
    structured attributes.
    """

    start: float
    end: float
    category: str
    label: str
    detail: Mapping[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """``end - start`` of the record."""
        return self.end - self.start

    def format(self) -> str:
        """One aligned timeline line."""
        attrs = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        window = f"[{format_time(self.start)} .. {format_time(self.end)}]"
        return f"{window} {self.category}:{self.label} {attrs}".rstrip()


class Tracer:
    """Collects :class:`TraceRecord` entries; disabled by default.

    A disabled tracer accepts records and drops them without building
    a :class:`TraceRecord`; truthiness equals ``enabled``.

    ``capacity`` bounds retention: with a capacity, the tracer is a
    ring buffer keeping only the newest records; without one it keeps
    everything.
    """

    __slots__ = ("enabled", "capacity", "_records", "dropped")

    def __init__(self, enabled: bool = False, *, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.enabled = enabled
        self.capacity = capacity
        self._records: deque[TraceRecord] = deque(maxlen=capacity)
        #: Records evicted by the ring buffer since the last clear().
        self.dropped = 0

    def __bool__(self) -> bool:
        """Truthiness == enabled."""
        return self.enabled

    def record(
        self,
        start: float,
        end: float,
        category: str,
        label: str,
        **detail: Any,
    ) -> None:
        """Append a record (no-op when disabled)."""
        if not self.enabled:
            return
        if end < start:
            raise ValueError("trace record ends before it starts")
        records = self._records
        if records.maxlen is not None and len(records) == records.maxlen:
            self.dropped += 1
        records.append(TraceRecord(start, end, category, label, detail))

    def records(self, category: str | None = None) -> list[TraceRecord]:
        """Records, optionally filtered by category."""
        if category is None:
            return list(self._records)
        return [r for r in self._records if r.category == category]

    def clear(self) -> None:
        """Drop all records."""
        self._records.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def timeline(self) -> str:
        """Human-readable dump, sorted by start time."""
        ordered = sorted(self._records, key=lambda r: (r.start, r.end))
        return "\n".join(record.format() for record in ordered)
