"""Ambient observation: instrument sessions you did not create.

The figure drivers and benchmark suites build their own
:class:`~repro.session.Session` /
:class:`~repro.hardware.node.HardwareNode` objects internally — their
signatures deliberately do not leak simulator plumbing.  To observe
one of those runs (``repro trace fig06``, ``repro run --metrics``)
without threading a registry through every measurement function, the
CLI installs an *ambient* :class:`ObservationContext`::

    with obs.capture() as ctx:
        figures.run("fig04")
    print(ctx.metrics.describe())
    records = ctx.tracer.records()

While the context is active, every :class:`HardwareNode` constructed
without an explicit ``metrics=`` argument adopts the context's shared
registry, and every one without an explicit ``spans=`` adopts its span
recorder.  The context's tracer is attached to that recorder, so the
timeline records from all sessions built inside the ``with`` block
are their finished spans, accumulated in one place; a capture that
traces therefore records spans too.  Explicit arguments always win — a
caller that asked for its own registry, recorder or trace keeps it.

The capture is the ``obs`` field of the ambient
:class:`~repro.context.SimContext` — isolated per thread (and asyncio
task), so every concurrent ``repro serve`` session observes only its
own simulations.  It is never pickled, so pool workers (separate
processes) never see it, which is why
:func:`repro.runner.points.execute_point_observed` re-creates a
capture inside the worker instead.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..configs import check_capacities
from ..context import use
from ..sim.trace import Tracer
from .metrics import DEFAULT_SAMPLE_CAPACITY, MetricsRegistry
from .spans import SpanRecorder


class ObservationContext:
    """A shared registry + tracer + span recorder ambient sessions adopt."""

    def __init__(
        self,
        *,
        metrics: bool = True,
        trace: bool = True,
        trace_capacity: int | None = None,
        metrics_capacity: int | None = None,
        spans: bool = False,
    ) -> None:
        check_capacities("capture", trace_capacity, metrics_capacity)
        self.metrics = MetricsRegistry(
            enabled=metrics,
            sample_capacity=(
                DEFAULT_SAMPLE_CAPACITY if metrics_capacity is None else metrics_capacity
            ),
        )
        self.tracer = Tracer(enabled=trace, capacity=trace_capacity)
        self.spans = SpanRecorder(enabled=spans or trace)
        self.spans.tracer = self.tracer
        #: How many HardwareNodes adopted this context.
        self.adoptions = 0


@contextmanager
def capture(
    *,
    metrics: bool = True,
    trace: bool = True,
    trace_capacity: int | None = None,
    metrics_capacity: int | None = None,
    spans: bool = False,
) -> Iterator[ObservationContext]:
    """Install an ambient observation context for the ``with`` body.

    Nested captures stack: the innermost context wins, and the outer
    one is restored on exit (also when the body raises — which is what
    keeps pool workers from leaking a registry into the next point).
    """
    context = ObservationContext(
        metrics=metrics,
        trace=trace,
        trace_capacity=trace_capacity,
        metrics_capacity=metrics_capacity,
        spans=spans,
    )
    with use(obs=context):
        yield context
