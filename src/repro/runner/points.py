"""Sim points: the unit of work of the sweep runner.

The paper's methodology is a grid of *independent* measurements —
every cell of the 8×8 P2P matrix, every (interface, size) pair of a
CommScope sweep, every (collective, partners) combination — each of
which stands up a fresh simulated node, runs one deterministic
discrete-event simulation, and returns a scalar (or a small result
object).  A :class:`SimPoint` captures one such cell as data:

- ``fn`` — the dotted path (``"pkg.module:callable"``) of a
  module-level measurement function, so the point can be pickled to a
  worker process and re-resolved there;
- ``params`` — the keyword arguments, stored as a sorted tuple of
  ``(name, value)`` pairs so points are immutable and their canonical
  form is order-independent;
- ``experiment_id`` / ``label`` — grouping metadata for reporting
  (deliberately *excluded* from the cache key, so two artifacts that
  measure the same point — e.g. Fig. 2's peaks over Fig. 3's sweep —
  share cached results).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..context import SimContext, use
from ..errors import BenchmarkError


def resolve_callable(path: str) -> Callable[..., Any]:
    """Import ``"pkg.module:callable"`` and return the callable."""
    module_name, sep, attr = path.partition(":")
    if not sep or not module_name or not attr:
        raise BenchmarkError(
            f"point fn {path!r} is not of the form 'pkg.module:callable'"
        )
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, attr)
    except AttributeError:
        raise BenchmarkError(
            f"module {module_name!r} has no attribute {attr!r}"
        ) from None
    if not callable(fn):
        raise BenchmarkError(f"point fn {path!r} is not callable")
    return fn


@dataclass(frozen=True)
class SimPoint:
    """One independent simulation work unit of a sweep."""

    experiment_id: str
    label: str
    fn: str
    params: tuple[tuple[str, Any], ...] = field(default_factory=tuple)

    @classmethod
    def make(
        cls, experiment_id: str, label: str, fn: str, **kwargs: Any
    ) -> "SimPoint":
        """Build a point, dropping ``None``-valued kwargs.

        ``None`` always means "use the measurement function's default"
        in this codebase, so dropping it keeps cache keys identical
        whether a caller omitted the argument or passed ``None``.
        """
        params = tuple(
            sorted((k, v) for k, v in kwargs.items() if v is not None)
        )
        return cls(experiment_id, label, fn, params)

    @property
    def kwargs(self) -> dict[str, Any]:
        """The keyword arguments as a plain dict."""
        return dict(self.params)

    def execute(self) -> Any:
        """Resolve ``fn`` and run the measurement in this process."""
        return resolve_callable(self.fn)(**self.kwargs)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.experiment_id}/{self.label}"


def execute_point(point: SimPoint) -> Any:
    """Module-level trampoline for process-pool workers (picklable)."""
    return point.execute()


def execute_point_observed(point: SimPoint) -> tuple[Any, dict[str, Any]]:
    """Run a point under an ambient metrics capture.

    Returns ``(value, metrics snapshot)``.  Used by the runner's
    ``capture_metrics`` mode: the snapshot is a plain JSON-able dict,
    so it pickles cheaply back from pool workers, where the parent's
    ambient context does not exist.  Tracing stays off — per-point
    timelines belong to ``repro trace``, not sweeps.
    """
    from ..obs.capture import capture

    with capture(trace=False) as ctx:
        value = point.execute()
    return value, ctx.metrics.snapshot()


def execute_point_spanned(
    point: SimPoint,
) -> tuple[Any, dict[str, Any], list[dict[str, Any]]]:
    """Run a point under an ambient metrics **and** span capture.

    Returns ``(value, metrics snapshot, span dicts)`` — all plain
    JSON-able data, so the triple pickles cheaply back from pool
    workers.  Used by the runner's ``capture_spans`` mode (reports and
    ``repro explain``); the per-point span sets are merged into one
    causal timeline by :func:`repro.obs.spans.merge_point_spans`.
    """
    from ..obs.capture import capture

    with capture(trace=False, spans=True) as ctx:
        value = point.execute()
    return value, ctx.metrics.snapshot(), ctx.spans.as_dicts()


def execute_point_in_context(
    point: SimPoint, context: SimContext, mode: str = "plain"
) -> Any:
    """Run a point under a :class:`~repro.context.SimContext`.

    The runner's one point trampoline.  ``context`` carries the
    topology, fault scenario and collective algorithm every node and
    communicator built inside the point adopts; it pickles to pool
    workers as plain data (never with its observation capture, which
    stays with the caller).  ``mode`` selects the capture wrapper:
    ``"plain"``, ``"metrics"`` or ``"spans"``, with the same return
    shapes as :func:`execute_point`, :func:`execute_point_observed` and
    :func:`execute_point_spanned`.  Module-level and driven by
    :func:`functools.partial` so pool workers can unpickle it.
    """
    with use(
        topology=context.topology,
        faults=context.faults,
        algorithm=context.algorithm,
    ):
        if mode == "spans":
            return execute_point_spanned(point)
        if mode == "metrics":
            return execute_point_observed(point)
        return execute_point(point)
