"""Causal span records for simulated operations.

A *span* is one logical operation in simulated time — a memcpy, a
kernel's direct-access window, a page-fault service, an MPI message,
an RCCL step — with an explicit parent/child edge to the operation
that caused it.  Spans carry the attribution the fair-share solver
already computes: while a flow bound to a span is active, every
re-level interval records the flow's rate and the channel (or cap)
that froze it, so after a run each span knows *where* its time went.

Design constraints, mirroring :mod:`repro.obs.metrics`:

- **Falsy when disabled.**  A disabled :class:`SpanRecorder` is falsy
  and ``begin`` returns ``None``, so instrumentation sites guard with
  ``if spans:`` and pay only a truthiness check when observability is
  off (``spans=None`` gets the shared disabled :data:`NULL_SPANS`).
- **Clock-free.**  Callers pass simulated timestamps (``engine.now``)
  explicitly; the recorder never reads a clock, which keeps replays
  and pool workers deterministic.
- **Explicit causality.**  Parents are threaded by hand (the
  ``parent=`` argument), never inferred from an ambient "current
  span": discrete-event process generators interleave arbitrarily
  across yields, so lexical nesting would lie about causality.
- **Picklable.**  :meth:`Span.as_dict` / :func:`merge_point_spans`
  round-trip spans as plain JSON-able dicts so pool workers can ship
  them back to the parent process.
- **The timeline's only producer.**  A recorder may carry a
  :class:`~repro.sim.trace.Tracer` (``recorder.tracer``); every
  :meth:`SpanRecorder.finish` then appends the span's
  ``(start, end, category, name, meta)`` as one timeline record, so
  each operation is recorded once and the tracer is a ring-buffered
  view over finished spans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from ..errors import SimulationError

if TYPE_CHECKING:
    from ..sim.trace import Tracer

__all__ = [
    "DEFAULT_INTERVAL_CAPACITY",
    "POINT_GAP_SECONDS",
    "NULL_SPANS",
    "Span",
    "SpanRecorder",
    "merge_point_spans",
    "resolve_spans",
    "span_dicts",
]

#: Default bound on per-span interval samples (blame totals are exact
#: regardless; only the sampled interval ring is bounded).
DEFAULT_INTERVAL_CAPACITY = 512

#: Idle gap inserted between points when merging per-point span sets
#: onto one artifact-level timeline (matches the trace exporter).
POINT_GAP_SECONDS = 1e-5


class Span:
    """One operation's record: identity, extent, causality, and blame.

    ``blame`` maps a *blame key* — a flattened channel name such as
    ``"link/gcd0-gcd1:quad/fwd"``, or ``"cap:<label>"`` for flows
    frozen at their own cap — to the seconds this span's flows spent
    limited by it.  ``intervals`` is a bounded sample of the raw
    ``(start, dt, rate, key)`` records behind those totals; overflow
    is counted in ``dropped``, never silently discarded.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "category",
        "name",
        "start",
        "end",
        "blame",
        "intervals",
        "dropped",
        "meta",
        "_interval_capacity",
    )

    def __init__(
        self,
        span_id: int,
        category: str,
        name: str,
        start: float,
        *,
        parent_id: int | None = None,
        interval_capacity: int = DEFAULT_INTERVAL_CAPACITY,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.category = category
        self.name = name
        self.start = start
        self.end: float | None = None
        self.blame: dict[str, float] = {}
        self.intervals: list[tuple[float, float, float, str]] = []
        self.dropped = 0
        self.meta = meta or {}
        self._interval_capacity = interval_capacity

    def account(self, start: float, dt: float, rate: float, key: str) -> None:
        """Charge ``dt`` seconds at ``rate`` B/s to blame bucket ``key``."""
        blame = self.blame
        blame[key] = blame.get(key, 0.0) + dt
        if len(self.intervals) < self._interval_capacity:
            self.intervals.append((start, dt, rate, key))
        else:
            self.dropped += 1

    @property
    def duration(self) -> float:
        """Span extent in seconds (0.0 while unfinished)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        """Plain JSON-able rendering (see :func:`Span.from_dict`)."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "cat": self.category,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "blame": dict(self.blame),
            "intervals": [list(record) for record in self.intervals],
            "dropped": self.dropped,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        """Rebuild a span from :meth:`as_dict` output."""
        span = cls(
            int(data["id"]),
            str(data["cat"]),
            str(data["name"]),
            float(data["start"]),
            parent_id=(None if data.get("parent") is None else int(data["parent"])),
            meta=dict(data.get("meta") or {}),
        )
        end = data.get("end")
        span.end = None if end is None else float(end)
        span.blame = {str(k): float(v) for k, v in (data.get("blame") or {}).items()}
        span.intervals = [
            (float(r[0]), float(r[1]), float(r[2]), str(r[3]))
            for r in data.get("intervals") or ()
        ]
        span.dropped = int(data.get("dropped", 0))
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(id={self.span_id}, cat={self.category!r}, "
            f"name={self.name!r}, start={self.start}, end={self.end})"
        )


class SpanRecorder:
    """Collects spans for one node/run; falsy and inert when disabled."""

    def __init__(
        self,
        enabled: bool = True,
        *,
        interval_capacity: int = DEFAULT_INTERVAL_CAPACITY,
    ) -> None:
        self.enabled = bool(enabled)
        self.interval_capacity = int(interval_capacity)
        self._spans: list[Span] = []
        self._next_id = 0
        #: Timeline tracer fed by :meth:`finish` (``None``: no timeline).
        self.tracer: Tracer | None = None

    def __bool__(self) -> bool:
        return self.enabled

    def __len__(self) -> int:
        return len(self._spans)

    def begin(
        self,
        category: str,
        name: str,
        *,
        start: float,
        parent: Span | None = None,
        **meta: Any,
    ) -> Span | None:
        """Open a span; returns ``None`` when recording is disabled."""
        if not self.enabled:
            return None
        span = Span(
            self._next_id,
            category,
            name,
            start,
            parent_id=None if parent is None else parent.span_id,
            interval_capacity=self.interval_capacity,
            meta=meta if meta else None,
        )
        self._next_id += 1
        self._spans.append(span)
        return span

    def finish(self, span: Span | None, end: float) -> None:
        """Close a span and publish it to the attached tracer, if any.

        A no-op for the ``None`` a disabled ``begin`` returned.  An
        ``end`` before the span's start is a backwards clock and raises
        :class:`~repro.errors.SimulationError`.
        """
        if span is None:
            return
        if end < span.start:
            raise SimulationError(
                f"span {span.name!r} ends at {end!r}, before its start "
                f"{span.start!r}"
            )
        span.end = end
        tracer = self.tracer
        if tracer is not None:
            tracer.record(span.start, end, span.category, span.name, **span.meta)

    def spans(self) -> list[Span]:
        """All spans begun so far, in creation (= id) order."""
        return list(self._spans)

    def as_dicts(self) -> list[dict[str, Any]]:
        """JSON-able rendering of every span, in id order."""
        return [span.as_dict() for span in self._spans]


#: Shared inert recorder for "spans disabled" paths.
NULL_SPANS = SpanRecorder(enabled=False)


def resolve_spans(spans: "SpanRecorder | bool | None") -> SpanRecorder:
    """Normalize a spans argument to a recorder instance.

    ``None``/``False`` mean disabled (the shared :data:`NULL_SPANS`),
    ``True`` means a fresh enabled recorder, and an existing recorder
    passes through (e.g. to share one recorder across nodes).
    """
    if spans is None or spans is False:
        return NULL_SPANS
    if spans is True:
        return SpanRecorder(enabled=True)
    return spans


def span_dicts(spans: "SpanRecorder | Iterable[Span | Mapping[str, Any]]") -> list[dict[str, Any]]:
    """Normalize spans from any carrier to a list of plain dicts."""
    if isinstance(spans, SpanRecorder):
        return spans.as_dicts()
    out: list[dict[str, Any]] = []
    for span in spans:
        if isinstance(span, Span):
            out.append(span.as_dict())
        else:
            out.append(dict(span))
    return out


def merge_point_spans(
    per_point: Sequence[tuple[str, Sequence[Mapping[str, Any]]]],
    *,
    gap: float = POINT_GAP_SECONDS,
    windows: Sequence[tuple[float, float]] | None = None,
) -> list[dict[str, Any]]:
    """Merge per-point span sets onto one artifact-level timeline.

    Each entry is ``(point label, spans-as-dicts)`` from one sweep
    point.  Points are laid end-to-end in input order with ``gap``
    seconds of idle between them (the same convention as the merged
    Chrome trace), each under a fresh synthetic ``point`` root span,
    and span ids are remapped to stay unique.  The layout depends only
    on the input order, so merging worker results in point order makes
    the merged set identical for ``jobs=1`` and ``jobs=N``.

    ``windows``, when given, holds one ``(start, end)`` per point on
    that point's own clock that its slot must cover besides its spans
    (the trace exporter passes each point's metric-sample extent, so
    counter samples stay inside their point's slot).
    """
    merged: list[dict[str, Any]] = []
    next_id = 0
    cursor = 0.0
    for index, (label, raw_spans) in enumerate(per_point):
        spans = [dict(span) for span in raw_spans]
        if spans:
            t0 = min(float(span["start"]) for span in spans)
            t1 = max(
                float(span["end"]) if span.get("end") is not None else float(span["start"])
                for span in spans
            )
        else:
            t0 = t1 = 0.0
        if windows is not None:
            lo, hi = windows[index]
            t0, t1 = min(t0, lo), max(t1, hi)
        shift = cursor - t0

        root_id = next_id
        next_id += 1
        id_map = {int(span["id"]): next_id + i for i, span in enumerate(spans)}
        next_id += len(spans)

        merged.append(
            {
                "id": root_id,
                "parent": None,
                "cat": "point",
                "name": label,
                "start": t0 + shift,
                "end": t1 + shift,
                "blame": {},
                "intervals": [],
                "dropped": 0,
                "meta": {"point": label, "spans": len(spans)},
            }
        )
        for span in spans:
            parent = span.get("parent")
            span["id"] = id_map[int(span["id"])]
            span["parent"] = (
                id_map.get(int(parent), root_id) if parent is not None else root_id
            )
            span["start"] = float(span["start"]) + shift
            span["end"] = (
                None if span.get("end") is None else float(span["end"]) + shift
            )
            span["intervals"] = [
                [float(r[0]) + shift, float(r[1]), float(r[2]), str(r[3])]
                for r in span.get("intervals") or ()
            ]
            merged.append(span)

        cursor = (t1 + shift) + gap
    return merged
