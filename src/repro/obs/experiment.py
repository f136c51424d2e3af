"""Observed artifact runs: trace + metrics for a whole experiment.

``repro trace fig06`` needs a timeline for an artifact whose driver
decomposes into many independent sim points, each of which builds its
own simulated node starting at ``t = 0``.  Rendering them raw would
stack every point on top of the origin, so :func:`trace_experiment`
runs the points **serially** under per-point
:func:`~repro.obs.capture.capture` contexts that record causal spans,
and lays each point's spans (and channel-rate samples) out
back-to-back with :func:`~repro.obs.spans.merge_point_spans`, under a
``point`` slice spanning each one — the trace reads like one long
annotated run.

Summary metrics (counters, per-channel bytes/busy time) are folded
across points into a single registry, so the payload's
``otherData.metrics`` block describes the whole artifact.
"""

from __future__ import annotations

from typing import Any, Mapping

from .capture import capture
from .metrics import MetricsRegistry
from .perfetto import build_chrome_trace, build_provenance
from .spans import merge_point_spans


def _last_sample(registry: MetricsRegistry) -> float:
    """Latest metric-sample time of one point, on its own clock."""
    times = [t for series in registry.series().values() for t, _ in series.samples]
    times += [t for usage in registry.channels().values() for t, _ in usage.samples]
    return max(times, default=0.0)


def _fold_point(
    export: MetricsRegistry, registry: MetricsRegistry, offset: float
) -> None:
    """Fold one point's registry into the export registry.

    Channel and series samples are shifted by ``offset`` so they land
    in the point's slot on the shared timeline.
    """
    for name, counter in registry.counters().items():
        export.counter(name).inc(counter.value)
    for name, gauge in registry.gauges().items():
        export.gauge(name).set(gauge.value)
        slot = export.gauge(name)
        if gauge.max_value > slot.max_value:
            slot.max_value = gauge.max_value
    for name, series in registry.series().items():
        slot = export.timeseries(name)
        slot.integral += series.integral
        slot.elapsed += series.elapsed
        slot.dropped += series.dropped
        if series.max_value > slot.max_value:
            slot.max_value = series.max_value
        for t, value in series.samples:
            slot.samples.append((t + offset, value))
    for name, usage in registry.channels().items():
        slot = export.channel(name, usage.capacity)
        slot.bytes += usage.bytes
        slot.busy_seconds += usage.busy_seconds
        slot.flows += usage.flows
        slot.dropped += usage.dropped
        if usage.max_concurrent_flows > slot.max_concurrent_flows:
            slot.max_concurrent_flows = usage.max_concurrent_flows
        for t, rate in usage.samples:
            slot.samples.append((t + offset, rate))


def trace_experiment(
    experiment_id: str,
    *,
    params: Mapping[str, Any] | None = None,
    trace_capacity: int | None = None,
) -> dict[str, Any]:
    """Run an artifact observed; returns the Chrome-trace payload.

    Points execute serially (observation shares one process-ambient
    context, and a sequential layout is the goal anyway); the run also
    produces the artifact's result, available under
    ``otherData.metrics`` only as aggregates — use ``repro run`` for
    the numbers themselves.  With ``trace_capacity=N`` each point keeps
    its ``N`` most recently finished spans (by end time, then id) and
    its ``point`` slice reports the rest as ``trace_dropped``.
    """
    from .. import figures
    from ..runner.points import execute_point

    params = dict(params or {})
    points = figures.sweep_points(experiment_id, **params)
    per_point: list[tuple[str, list[dict[str, Any]]]] = []
    registries: list[MetricsRegistry] = []
    dropped: list[int] = []
    for point in points:
        with capture(trace=False, spans=True) as ctx:
            execute_point(point)
        finished = [span for span in ctx.spans.spans() if span.end is not None]
        kept = finished
        if trace_capacity and len(finished) > trace_capacity:
            newest = sorted(finished, key=lambda span: (span.end, span.span_id))
            ids = {span.span_id for span in newest[-trace_capacity:]}
            kept = [span for span in finished if span.span_id in ids]
        per_point.append((point.label, [span.as_dict() for span in kept]))
        registries.append(ctx.metrics)
        dropped.append(len(finished) - len(kept))

    # Each slot starts at its point's t = 0 and also covers its metric
    # samples, so counter timestamps never go backwards across points.
    merged = merge_point_spans(
        per_point,
        windows=[(0.0, _last_sample(registry)) for registry in registries],
    )
    roots = [span for span in merged if span["parent"] is None]
    export = MetricsRegistry(enabled=True)
    for root, registry, evicted in zip(roots, registries, dropped):
        root["meta"].update(experiment=experiment_id, trace_dropped=evicted)
        _fold_point(export, registry, root["start"])

    from ..core.calibration import DEFAULT_CALIBRATION
    from ..topology.presets import frontier_node

    provenance = build_provenance(
        calibration=DEFAULT_CALIBRATION,
        topology=frontier_node(),
        extra={"experiment": experiment_id, "points": len(points)},
    )
    return build_chrome_trace([], metrics=export, spans=merged, provenance=provenance)
