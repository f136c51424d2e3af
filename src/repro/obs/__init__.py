"""Observability: metrics registry, ambient capture, Perfetto export.

The paper's contribution is *explaining* data movement — which link,
engine or NUMA hop ate the bandwidth — so the simulator needs more
than end-to-end numbers.  This package provides:

- :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — counters,
  gauges, time-weighted series and per-channel transport accounting,
  near-zero cost when disabled (``if metrics:`` guard, mirroring
  spans);
- :func:`capture` (:mod:`repro.obs.capture`) — an ambient observation
  context so measurement functions that build their own sessions get
  instrumented without signature changes;
- :class:`SpanRecorder` (:mod:`repro.obs.spans`) — causal spans with
  parent/child edges and per-interval bottleneck blame, fed by the
  fair-share solver's attribution; finished spans are also the
  timeline tracer's only records;
- :mod:`repro.obs.attribution` — critical-path extraction over the
  span DAG and ranked "why was this slow" blame tables;
- :mod:`repro.obs.report` — self-contained HTML/JSON run reports
  (``repro report`` / ``repro explain``);
- :mod:`repro.obs.perfetto` — Chrome-trace/Perfetto JSON export: one
  slice per span with causality flow-arrows, channel-rate counter
  tracks, and provenance;
- :func:`trace_experiment` (:mod:`repro.obs.experiment`) — run one
  artifact observed and lay its points out on a single timeline.
"""

from .attribution import (
    CriticalPath,
    PathSegment,
    blame_ranking,
    critical_path,
    explain_spans,
    span_subtree,
)
from .capture import ObservationContext, capture
from .experiment import trace_experiment
from .metrics import (
    NULL_METRICS,
    ChannelUsage,
    Counter,
    Gauge,
    MetricsRegistry,
    TimeSeries,
    format_snapshot,
    merge_snapshots,
    metric_name,
    resolve_metrics,
)
from .perfetto import (
    build_chrome_trace,
    build_provenance,
    validate_chrome_trace,
    write_chrome_trace,
)
from .report import collect_report, explain_artifact, render_html, write_report
from .spans import (
    NULL_SPANS,
    Span,
    SpanRecorder,
    merge_point_spans,
    resolve_spans,
    span_dicts,
)

__all__ = [
    "ObservationContext",
    "capture",
    "trace_experiment",
    "NULL_METRICS",
    "ChannelUsage",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "TimeSeries",
    "format_snapshot",
    "merge_snapshots",
    "metric_name",
    "resolve_metrics",
    "build_chrome_trace",
    "build_provenance",
    "validate_chrome_trace",
    "write_chrome_trace",
    "NULL_SPANS",
    "Span",
    "SpanRecorder",
    "merge_point_spans",
    "resolve_spans",
    "span_dicts",
    "CriticalPath",
    "PathSegment",
    "blame_ranking",
    "critical_path",
    "explain_spans",
    "span_subtree",
    "collect_report",
    "explain_artifact",
    "render_html",
    "write_report",
]
