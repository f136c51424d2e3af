"""Chrome-trace (Perfetto) JSON export of simulator timelines.

Causal spans (see :mod:`repro.obs.spans`) are the simulator's record
of every transfer, kernel, fault and collective step; this module lays
them out in the `Chrome Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
so they load directly in `Perfetto <https://ui.perfetto.dev>`_ or
``chrome://tracing``:

- every span becomes one complete (``"ph": "X"``) slice, carrying its
  ``span_id``, blame and meta, on a track derived from the span —
  kernels and faults land on their GCD's track, memcpys on a per-kind
  track, collectives on theirs — and each parent → child edge becomes
  a flow-event pair (``"ph": "s"``/``"f"``), which Perfetto draws as a
  causality arrow between slices;
- every flow-network channel with metric samples becomes a counter
  (``"ph": "C"``) track showing allocated GB/s over simulated time —
  the per-link utilization picture the paper's analysis rests on;
- timeline records passed explicitly (e.g. a hand-filled
  :class:`~repro.sim.trace.Tracer`) become slices on a row of their
  own, under the same track rule;
- ``otherData`` carries provenance (calibration/topology fingerprints,
  package version, git SHA), so a trace file is self-describing.

Times are simulated seconds scaled to microseconds (the format's
unit).  :func:`validate_chrome_trace` is the schema check CI runs on
exported traces.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..sim.trace import TraceRecord
from .metrics import MetricsRegistry

#: Chrome trace timestamps are microseconds; the simulator uses seconds.
_US = 1e6

#: pid of the record rows; counter and span tracks get their own
#: process rows.
_SIM_PID = 1
_COUNTER_PID = 2
_SPAN_PID = 3


def _track_for(category: str, name: str, meta: Mapping[str, Any]) -> str:
    """Display track of one slice (GCD if known, else its category)."""
    device = meta.get("device", meta.get("gcd"))
    if device is not None:
        return f"gcd{device}/{category}"
    if category == "memcpy":
        # Split peer copies from host copies so lanes stay readable.
        kind = name.split(":", 1)[0]
        return f"memcpy/{kind}"
    return category


def _process_name(pid: int, name: str) -> dict[str, Any]:
    """Metadata event naming one process row."""
    return {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}


def _track_ids(events: list[dict[str, Any]], pid: int, process: str):
    """A ``track name -> tid`` lookup for one process row.

    Names the row on its first track and each track on first use, so a
    row without slices emits no metadata at all.
    """
    tids: dict[str, int] = {}

    def tid(track: str) -> int:
        if track not in tids:
            if not tids:
                events.append(_process_name(pid, process))
            tids[track] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tids[track],
                    "args": {"name": track},
                }
            )
        return tids[track]

    return tid


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def build_provenance(
    *,
    calibration: Any | None = None,
    topology: Any | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Self-description block for ``otherData``.

    Accepts live :class:`~repro.core.calibration.CalibrationProfile` /
    :class:`~repro.topology.node.NodeTopology` objects and records
    their content fingerprints, plus the package version and git SHA.
    """
    from .. import __version__
    from ..perf.core import _git_sha

    provenance: dict[str, Any] = {
        "generator": "repro.obs.perfetto",
        "version": __version__,
        "git_sha": _git_sha(),
    }
    if calibration is not None:
        provenance["calibration_fingerprint"] = calibration.fingerprint()
    if topology is not None:
        provenance["topology_fingerprint"] = topology.fingerprint()
        provenance["topology"] = getattr(topology, "name", str(topology))
    if extra:
        provenance.update({k: _json_safe(v) for k, v in extra.items()})
    return provenance


def build_chrome_trace(
    records: Iterable[TraceRecord],
    *,
    metrics: MetricsRegistry | None = None,
    spans: Iterable[Mapping[str, Any]] | None = None,
    provenance: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the Chrome-trace payload (a JSON-able dict).

    ``spans`` (span dicts, see :meth:`repro.obs.spans.Span.as_dict`)
    are the timeline; ``records`` is for timeline records that no span
    produced — pass ``[]`` when the spans are given, or every finished
    span is drawn twice.
    """
    events: list[dict[str, Any]] = []
    track_id = _track_ids(events, _SIM_PID, "simulated timeline")
    for record in sorted(records, key=lambda r: (r.start, r.end)):
        events.append(
            {
                "name": record.label,
                "cat": record.category,
                "ph": "X",
                "pid": _SIM_PID,
                "tid": track_id(
                    _track_for(record.category, record.label, record.detail)
                ),
                "ts": record.start * _US,
                "dur": record.duration * _US,
                "args": {k: _json_safe(v) for k, v in record.detail.items()},
            }
        )

    if metrics is not None:
        counter_events = _counter_events(metrics)
        if counter_events:
            events.append(_process_name(_COUNTER_PID, "channel rates"))
            events.extend(counter_events)

    if spans is not None:
        _span_events(spans, events)

    payload: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    other: dict[str, Any] = dict(provenance) if provenance else {}
    if metrics is not None and metrics.enabled:
        other["metrics"] = metrics.snapshot()
    if other:
        payload["otherData"] = other
    return payload


def _counter_events(metrics: MetricsRegistry) -> list[dict[str, Any]]:
    """Counter tracks: one per busy channel (allocated GB/s over time).

    Each usage sample marks the start of a constant-rate interval, so
    emitting the value at the sample time draws the correct step
    function in Perfetto's counter rendering.
    """
    events: list[dict[str, Any]] = []
    for name, usage in sorted(metrics.channels().items()):
        if not usage.samples:
            continue
        counter = f"{name} GB/s"
        last_rate: float | None = None
        for start, rate in usage.samples:
            if rate == last_rate:
                continue
            last_rate = rate
            events.append(
                {
                    "name": counter,
                    "ph": "C",
                    "pid": _COUNTER_PID,
                    "ts": start * _US,
                    "args": {"rate": rate / 1e9},
                }
            )
    for name, series in sorted(metrics.series().items()):
        last_value: float | None = None
        for t, value in series.samples:
            if value == last_value:
                continue
            last_value = value
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "pid": _COUNTER_PID,
                    "ts": t * _US,
                    "args": {"value": value},
                }
            )
    return events


def _span_events(
    spans: Iterable[Mapping[str, Any]], events: list[dict[str, Any]]
) -> None:
    """Append span slices plus parent → child causality flow arrows.

    Each parent/child edge becomes an ``"s"``/``"f"`` flow-event pair
    keyed by the child span's id, so Perfetto draws an arrow from the
    parent slice to the child slice.
    """
    records = sorted(
        (dict(span) for span in spans),
        key=lambda s: (float(s["start"]), int(s["id"])),
    )
    track_id = _track_ids(events, _SPAN_PID, "causal spans")
    tid_of: dict[int, int] = {}
    for span in records:
        category = str(span.get("cat", "span"))
        name = str(span.get("name", ""))
        meta = span.get("meta") or {}
        tid = tid_of[int(span["id"])] = track_id(_track_for(category, name, meta))
        start = float(span["start"])
        end = span.get("end")
        duration = (float(end) - start) if end is not None else 0.0
        args: dict[str, Any] = {"span_id": int(span["id"])}
        blame = span.get("blame") or {}
        if blame:
            args["blame_us"] = {
                key: seconds * _US for key, seconds in blame.items()
            }
        if span.get("dropped"):
            args["dropped_intervals"] = span["dropped"]
        for key, value in meta.items():
            args[key] = _json_safe(value)
        events.append(
            {
                "name": name,
                "cat": category,
                "ph": "X",
                "pid": _SPAN_PID,
                "tid": tid,
                "ts": start * _US,
                "dur": duration * _US,
                "args": args,
            }
        )

    for span in records:
        parent_id = span.get("parent")
        if parent_id is None or int(parent_id) not in tid_of:
            continue  # a root, or a cross-point edge pruned by a merge
        flow = {
            "name": "causal",
            "cat": str(span.get("cat", "span")),
            "id": int(span["id"]),
            "pid": _SPAN_PID,
            "ts": float(span["start"]) * _US,
        }
        events.append({**flow, "ph": "s", "tid": tid_of[int(parent_id)]})
        events.append({**flow, "ph": "f", "bp": "e", "tid": tid_of[int(span["id"])]})


def validate_chrome_trace(payload: Any) -> list[str]:
    """Schema-check a trace payload; returns a list of problems.

    An empty list means the payload is loadable by Perfetto /
    ``chrome://tracing``.  This is the check CI runs on the exported
    artifact trace.
    """
    problems: list[str] = []
    if not isinstance(payload, Mapping):
        return ["top level is not an object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not an array"]
    counter_clock: dict[tuple[int, str], float] = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, Mapping):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "C", "M", "s", "f"):
            problems.append(f"{where}: unsupported phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing event name")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: missing integer pid")
        if phase == "M":
            if event["name"] not in ("process_name", "thread_name"):
                problems.append(f"{where}: unknown metadata {event['name']!r}")
            args = event.get("args")
            if not isinstance(args, Mapping) or not isinstance(
                args.get("name"), str
            ):
                problems.append(f"{where}: metadata args.name missing")
            continue
        ts = event.get("ts")
        ts_ok = isinstance(ts, (int, float)) and ts >= 0
        if not ts_ok:
            problems.append(f"{where}: bad ts {ts!r}")
        if phase == "X":
            if not isinstance(event.get("tid"), int):
                problems.append(f"{where}: missing integer tid")
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        elif phase == "C":
            args = event.get("args")
            if not isinstance(args, Mapping) or not args:
                problems.append(f"{where}: counter without args")
            elif not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(f"{where}: non-numeric counter value")
            # Counters are a per-(pid, name) time series; Perfetto
            # requires monotonically non-decreasing timestamps within
            # each series to render the step function.
            if (
                ts_ok
                and isinstance(event.get("name"), str)
                and isinstance(event.get("pid"), int)
            ):
                key = (event["pid"], event["name"])
                last = counter_clock.get(key)
                if last is not None and ts < last:
                    problems.append(
                        f"{where}: counter {event['name']!r} timestamp "
                        f"{ts!r} goes backwards (previous {last!r})"
                    )
                else:
                    counter_clock[key] = float(ts)
        else:  # "s" / "f" — flow events need a binding track and an id
            if not isinstance(event.get("tid"), int):
                problems.append(f"{where}: missing integer tid")
            if event.get("id") is None:
                problems.append(f"{where}: flow event without id")
    return problems


def write_chrome_trace(path: str | Path, payload: Mapping[str, Any]) -> Path:
    """Serialize a trace payload to ``path`` (validated first)."""
    problems = validate_chrome_trace(payload)
    if problems:
        raise ValueError(
            "refusing to write an invalid trace: " + "; ".join(problems[:5])
        )
    path = Path(path)
    path.write_text(json.dumps(payload, indent=1, sort_keys=False))
    return path
