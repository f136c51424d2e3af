"""Grouped configuration objects for the ``repro.api`` v1 surface.

Five PRs of features left :class:`~repro.session.Session` and
:class:`~repro.runner.SweepRunner` with a sprawl of flat keyword
arguments (``trace``, ``trace_capacity``, ``metrics``,
``metrics_capacity``, ``spans``, ``jobs``, ``use_cache``, …).  The v1
API groups them into two small dataclasses:

- :class:`ObsConfig` — what to observe (tracer, metrics, spans).
- :class:`RunnerConfig` — how to fan out (jobs, cache, captures).

These classes live in their own dependency-free module so
``repro.api``, ``repro.session`` and ``repro.runner`` can all import
them without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .errors import ConfigurationError


def check_capacities(
    owner: str, trace_capacity: int | None, metrics_capacity: int | None
) -> None:
    """Raise :class:`ConfigurationError` for a bad observation bound.

    Every constructor taking these bounds (``ObsConfig``, ``capture()``,
    ``HardwareNode``) calls this, so a bad one fails before any run.
    """
    for name, value, minimum in (
        ("trace_capacity", trace_capacity, 1),
        ("metrics_capacity", metrics_capacity, 0),
    ):
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ConfigurationError(
                f"{owner}.{name} must be an int >= {minimum} or None, "
                f"got {value!r}"
            )


@dataclass(frozen=True)
class ObsConfig:
    """What a :class:`~repro.session.Session` observes.

    Parameters mirror the observability stack one-to-one:

    trace:
        Enable the timeline tracer.  Timeline records are finished
        causal spans, so tracing also records spans (the session's
        span recorder is switched on and the tracer attached to it).
    trace_capacity:
        Optional tracer ring-buffer bound (newest records win): an int
        of at least 1.
    metrics:
        ``True`` for a fresh enabled
        :class:`~repro.obs.metrics.MetricsRegistry`, an existing
        registry to share across sessions, or ``False``/``None`` for
        the near-zero-cost null registry.
    metrics_capacity:
        Per-series sample-ring bound for a ``metrics=True`` registry:
        an int of at least 0.
    spans:
        ``True`` for a fresh :class:`~repro.obs.spans.SpanRecorder`
        (causal spans + bottleneck attribution), an existing recorder,
        or ``False``/``None`` for disabled.
    """

    trace: bool = False
    trace_capacity: int | None = None
    metrics: Any = None
    metrics_capacity: int | None = None
    spans: Any = None

    def __post_init__(self) -> None:
        check_capacities("ObsConfig", self.trace_capacity, self.metrics_capacity)

    @property
    def enabled(self) -> bool:
        """Whether any observation channel is on."""
        return bool(self.trace or self.metrics or self.spans)


@dataclass(frozen=True)
class RunnerConfig:
    """How a :class:`~repro.runner.SweepRunner` fans out.

    jobs:
        Worker processes — an int, ``"auto"``, or ``None`` for serial.
    cache:
        Reuse content-addressed results from previous runs.
    cache_dir:
        Cache location override (defaults to the user cache dir).
    capture_metrics:
        Collect each point's metrics snapshot into its result record.
    capture_spans:
        Collect each point's causal spans into its result record.
    """

    jobs: int | str | None = None
    cache: bool = True
    cache_dir: str | None = None
    capture_metrics: bool = False
    capture_spans: bool = False
