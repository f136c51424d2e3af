"""The sweep runner: fan sim points out over worker processes.

The measurement grid is embarrassingly parallel — every
:class:`~repro.runner.points.SimPoint` builds its own simulated node —
so the runner's job is bookkeeping, not synchronization:

1. probe the :class:`~repro.runner.cache.ResultCache` for every point;
2. execute the misses, either in-process (``jobs=1``) or over a
   ``ProcessPoolExecutor`` (``jobs>1``), falling back to serial
   execution if a pool cannot be started (restricted sandboxes);
3. store fresh outputs and return them **in point order**, so the
   assembled :class:`~repro.core.experiment.ExperimentResult` is
   bit-identical regardless of ``jobs`` (enforced by the differential
   tests in ``tests/runner/``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Mapping, Sequence

from ..context import SimContext, active, use
from .cache import ResultCache

# Both trampolines stay module globals looked up at call time, so a
# profiler can wrap them here by name.
from .points import SimPoint, execute_point, execute_point_in_context


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the *machine*, not the cgroup/affinity
    mask — in a container pinned to 2 of 64 cores it answers 64, and
    ``jobs="auto"`` would oversubscribe 32× (exactly the environment a
    long-lived ``repro serve`` runs in).  ``os.sched_getaffinity(0)``
    reports the schedulable set; fall back to ``cpu_count`` on
    platforms without it (macOS, Windows).
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            mask = getaffinity(0)
        except OSError:  # pragma: no cover - exotic kernels
            mask = None
        if mask:
            return len(mask)
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | str | None) -> int:
    """Normalize a ``--jobs`` value: ``None``→1, ``0``/"auto"→cores."""
    if jobs is None:
        return 1
    if jobs == "auto" or jobs == 0:
        return available_cpus()
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass
class RunnerStats:
    """Work accounting of one :class:`SweepRunner`.

    Cache counters are **this runner's own** hits/misses — deltas of
    the (possibly shared) :class:`~repro.runner.cache.CacheStats`
    observed around each ``run_points`` call, not the cache's lifetime
    totals.  ``metrics`` holds the merged per-point metrics snapshot
    when the runner was built with ``capture_metrics=True``; ``spans``
    holds the merged causal-span timeline (per-point span sets laid
    end-to-end in point order under synthetic point roots) when built
    with ``capture_spans=True``.
    """

    points: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    uncacheable: int = 0
    jobs: int = 1
    parallel_fallbacks: int = 0
    pool_crashes: int = 0
    wall_seconds: float = 0.0
    metrics: dict[str, Any] | None = None
    spans: list[dict[str, Any]] | None = None

    def as_dict(self) -> dict[str, Any]:
        """The counters as a plain dict (for perf reports)."""
        out = {
            "points": self.points,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "uncacheable": self.uncacheable,
            "jobs": self.jobs,
            "parallel_fallbacks": self.parallel_fallbacks,
            "pool_crashes": self.pool_crashes,
            "wall_seconds": self.wall_seconds,
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics
        if self.spans is not None:
            out["span_count"] = len(self.spans)
        return out

    def describe(self) -> str:
        """One-line ``--cache-stats`` summary."""
        return (
            f"sweep-runner: {self.points} points, {self.executed} executed "
            f"({self.jobs} job(s)), cache {self.cache_hits} hit(s) / "
            f"{self.cache_misses} miss(es) / {self.uncacheable} "
            f"uncacheable, {self.wall_seconds:.2f}s"
        )


class SweepRunner:
    """Executes sim-point grids with caching and optional parallelism.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (default) runs in-process, ``0`` or
        ``"auto"`` uses all cores.
    cache:
        A :class:`ResultCache` to use, or ``None`` to build one from
        ``cache_dir`` (``use_cache=False`` disables caching entirely).
    faults:
        Optional :class:`~repro.faults.FaultScenario` injected into
        every point of the sweep (fault-sensitivity runs).  The
        scenario's fingerprint is folded into each point's cache key,
        so faulted and healthy results never collide and two sweeps
        under the same scenario share the cache.
    topology:
        Optional :class:`~repro.topology.node.NodeTopology` every node
        built inside the sweep adopts (``--topology FILE`` runs).  Its
        structural fingerprint is folded into each point's cache key,
        so a file-defined topology keys the cache exactly like the
        fingerprint-identical code preset.
    algorithm:
        Optional collective-algorithm name (see
        :data:`~repro.rccl.algorithms.RCCL_ALGORITHMS`, or ``"auto"``)
        every communicator built inside the sweep adopts; folded into
        the cache key as a plain string.

    Each run executes under one :class:`~repro.context.SimContext`:
    these keywords over the caller's :func:`~repro.context.active`
    context.  That one context supplies the cache-key suffix, the
    install around decomposition and merge, and the payload shipped
    to pool workers, so a context installed around the runner keys and
    reaches workers exactly like the matching keyword.
    """

    def __init__(
        self,
        jobs: int | str | None = 1,
        *,
        cache: ResultCache | None = None,
        use_cache: bool = True,
        cache_dir: str | None = None,
        capture_metrics: bool = False,
        capture_spans: bool = False,
        faults: Any = None,
        topology: Any = None,
        algorithm: str | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        if cache is None and use_cache:
            cache = ResultCache(cache_dir)
        self.cache = cache if use_cache else None
        # Span capture also collects metrics (the spanned trampoline
        # captures both — reports want channel utilization alongside
        # the blame table, and one capture context costs the same).
        self.capture_metrics = capture_metrics or capture_spans
        self.capture_spans = capture_spans
        # An empty scenario injects nothing, so it is equivalent to
        # (and cache-compatible with) no scenario at all.
        self.faults = faults if faults else None
        self.topology = topology
        if algorithm is not None:
            from ..rccl.algorithms import check_algorithm

            check_algorithm(algorithm)
        self.algorithm = algorithm
        self.stats = RunnerStats(jobs=self.jobs)
        # (label, span dicts) per executed point, in point order, across
        # all run_points calls — remerged after each batch so span ids
        # and the synthetic timeline stay globally consistent.
        self._span_points: list[tuple[str, list[dict[str, Any]]]] = []

    @classmethod
    def from_config(
        cls,
        config: Any,
        *,
        faults: Any = None,
        topology: Any = None,
        algorithm: str | None = None,
    ) -> "SweepRunner":
        """Build a runner from a :class:`~repro.configs.RunnerConfig`."""
        return cls(
            config.jobs,
            use_cache=config.cache,
            cache_dir=config.cache_dir,
            capture_metrics=config.capture_metrics,
            capture_spans=config.capture_spans,
            faults=faults,
            topology=topology,
            algorithm=algorithm,
        )

    # -- point execution ------------------------------------------------

    def run_points(self, points: Sequence[SimPoint]) -> list[Any]:
        """Execute a grid; returns outputs in point order."""
        points = list(points)
        started = time.perf_counter()
        # Snapshot the cache counters so the stats report *this
        # runner's* work even when the cache object is shared across
        # runners or run_many calls (lifetime totals would otherwise
        # leak into --cache-stats).
        if self.cache is not None:
            hits_before = self.cache.stats.hits
            misses_before = self.cache.stats.misses
            uncacheable_before = self.cache.stats.uncacheable
        outputs: list[Any] = [None] * len(points)
        keys: list[str | None] = [None] * len(points)
        pending: list[int] = []
        context = self._context()
        for index, point in enumerate(points):
            key = (
                self.cache.key_for(self._keyed_point(point, context))
                if self.cache is not None
                else None
            )
            keys[index] = key
            if key is not None:
                hit, value = self.cache.load(key)
                if hit:
                    outputs[index] = value
                    continue
            pending.append(index)
        if pending:
            fresh = self._execute([points[i] for i in pending], context)
            for index, value in zip(pending, fresh):
                outputs[index] = value
                if self.cache is not None and keys[index] is not None:
                    self.cache.store(keys[index], value)
        self.stats.points += len(points)
        self.stats.executed += len(pending)
        if self.cache is not None:
            self.stats.cache_hits += self.cache.stats.hits - hits_before
            self.stats.cache_misses += self.cache.stats.misses - misses_before
            self.stats.uncacheable += (
                self.cache.stats.uncacheable - uncacheable_before
            )
        self.stats.wall_seconds += time.perf_counter() - started
        return outputs

    def _overrides(self) -> dict[str, Any]:
        """The context keywords this runner was given."""
        fields = (
            ("topology", self.topology),
            ("faults", self.faults),
            ("algorithm", self.algorithm),
        )
        return {name: value for name, value in fields if value is not None}

    def _context(self) -> SimContext:
        """This run's context: the keywords over :func:`active`."""
        return replace(active(), **self._overrides())

    def _keyed_point(
        self, point: SimPoint, context: SimContext | None = None
    ) -> SimPoint:
        """The point as cached: params plus the context's key params.

        The pseudo-params are appended for *keying only* (the executed
        point is untouched — the context reaches the measurement via
        the ambient install, not kwargs).
        """
        if context is None:
            context = self._context()
        extra = context.key_params()
        if not extra:
            return point
        return SimPoint(
            point.experiment_id,
            point.label,
            point.fn,
            point.params + extra,
        )

    def _execute(self, points: list[SimPoint], context: SimContext) -> list[Any]:
        mode = (
            "spans"
            if self.capture_spans
            else "metrics" if self.capture_metrics else "plain"
        )
        trampoline = partial(execute_point_in_context, context=context, mode=mode)
        if self.jobs > 1 and len(points) > 1:
            try:
                results = self._execute_parallel(points, trampoline)
            except (OSError, NotImplementedError, ImportError):
                # No usable multiprocessing (sandboxes, missing /dev/shm):
                # the serial path produces identical results, just slower.
                self.stats.parallel_fallbacks += 1
                results = [trampoline(point) for point in points]
        else:
            results = [trampoline(point) for point in points]
        if not self.capture_metrics:
            return results
        from ..obs.metrics import merge_snapshots

        values: list[Any] = []
        for point, result in zip(points, results):
            if self.capture_spans:
                value, snapshot, spans = result
                self._span_points.append((str(point), spans))
            else:
                value, snapshot = result
            values.append(value)
            self.stats.metrics = merge_snapshots(self.stats.metrics, snapshot)
        if self.capture_spans:
            from ..obs.spans import merge_point_spans

            self.stats.spans = merge_point_spans(self._span_points)
        return values

    def _execute_parallel(
        self, points: list[SimPoint], trampoline: Any
    ) -> list[Any]:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        workers = min(self.jobs, len(points))
        chunksize = max(1, len(points) // (workers * 4))
        results: list[Any] = []
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # ``map`` preserves submission order, which is point
                # order; consuming it incrementally keeps every result
                # that completed before a worker crash.
                for value in pool.map(
                    trampoline, points, chunksize=chunksize
                ):
                    results.append(value)
        except BrokenProcessPool:
            # A worker died mid-sweep (OOM kill, segfault in a native
            # extension, container eviction).  The pool is poisoned,
            # but the unfinished points are still perfectly runnable —
            # finish them serially instead of surfacing a raw
            # BrokenProcessPool for the whole sweep.  If serial
            # execution fails too, *that* exception propagates.
            self.stats.pool_crashes += 1
            results.extend(
                trampoline(point) for point in points[len(results):]
            )
        return results

    # -- experiment-level API -------------------------------------------

    def run_experiment(self, experiment_id: str, **params: Any):
        """Run one artifact through its sweep decomposition."""
        from .. import figures

        started = time.perf_counter()
        # Decomposition and merge see the same context as the points.
        with use(**self._overrides()):
            points = figures.sweep_points(experiment_id, **params)
            outputs = self.run_points(points)
            result = figures.merge_outputs(
                experiment_id, points, outputs, **params
            )
        result.wall_seconds = time.perf_counter() - started
        return result

    def run_many(
        self, experiment_ids: Sequence[str], **params: Any
    ) -> dict[str, Any]:
        """Run several artifacts as **one** flattened point grid.

        Flattening lets the pool balance points across experiments
        instead of draining one artifact at a time; results come back
        keyed by experiment id, in the requested order.  Each result's
        ``wall_seconds`` is the batch wall time apportioned by point
        count.
        """
        from .. import figures

        started = time.perf_counter()
        ids = list(dict.fromkeys(experiment_ids))
        with use(**self._overrides()):
            decompositions = {
                eid: figures.sweep_points(eid, **params) for eid in ids
            }
            flat: list[SimPoint] = []
            for eid in ids:
                flat.extend(decompositions[eid])
            outputs = self.run_points(flat)
            elapsed = time.perf_counter() - started
            total = max(1, len(flat))
            results: dict[str, Any] = {}
            cursor = 0
            for eid in ids:
                points = decompositions[eid]
                chunk = outputs[cursor : cursor + len(points)]
                cursor += len(points)
                result = figures.merge_outputs(eid, points, chunk, **params)
                result.wall_seconds = elapsed * len(points) / total
                results[eid] = result
        return results
