"""Layer tracer that wraps repro's callables from outside the program.

:meth:`Tracer.install` replaces a fixed set of public callables with
timing wrappers for the duration of a traced run and
:meth:`Tracer.uninstall` puts the originals back; the program itself
is not modified.  Each wrapper pushes a frame on a per-thread stack, so
a layer's *self* time is its span's duration minus the time its child
spans cover, and the self times of all layers plus the root's self time
add back up to the root's wall time.

Calls that happen once per page or per flow are not recorded as spans:
``PageTable.migrate`` and ``FlowNetwork.transfer`` are only counted,
and the fairshare solver calls and page-migration process steps are
timed into a per-layer accumulator without a span record.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: Solver counters harvested from every ``SolverStats`` the run creates.
SOLVER_COUNTERS = (
    "component_solves",
    "flows_releveled",
    "largest_component",
    "dirty_relevels",
    "replay_rounds",
)


class Tracer:
    """Spans, per-layer self/total time and counters of one traced run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []
        self._solver_stats: list[Any] = []
        self._tallies: dict[str, Any] = {}
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.solver: dict[str, int] = dict.fromkeys(SOLVER_COUNTERS, 0)
        #: ``(id, name, start, end, parent id, request id)`` per span.
        self.spans: list[tuple[int, str, float, float, int, Any]] = []

    # -- span stack -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: Any) -> None:
        """Tag this thread's subsequent spans with a request id."""
        self._local.request = request

    def enter(self, name: str, record: bool = True) -> list:
        """Open a frame: ``[name, start, child time, span id, record]``."""
        stack = self._stack()
        frame = [name, 0.0, 0.0, next(self._ids) if record else 0, record]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> float:
        """Close the innermost frame; returns its duration."""
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, child, span_id, record = frame
        duration = end - start
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        with self._lock:
            self.total_s[name] += duration
            self.self_s[name] += duration - child
            if record:
                self.spans.append(
                    (
                        span_id,
                        name,
                        start,
                        end,
                        parent_id,
                        getattr(self._local, "request", None),
                    )
                )
        return duration

    def count(self, key: str, amount: int = 1) -> None:
        """Add to a named counter."""
        with self._lock:
            self.counts[key] += amount

    # -- wrappers ---------------------------------------------------------

    def timed(self, fn: Callable, name: str, record: bool = True) -> Callable:
        """``fn`` timed as layer ``name``."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self.enter(name, record)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)

        return wrapper

    def timed_steps(self, fn: Callable, name: str) -> Callable:
        """A generator function whose every resumption is timed as ``name``.

        Simulation processes run in many short steps interleaved with
        other processes; only the steps themselves are the layer's time.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self._steps(fn(*args, **kwargs), name)

        return wrapper

    def _steps(self, gen: Any, name: str) -> Any:
        value: Any = None
        error: BaseException | None = None
        while True:
            frame = self.enter(name, record=False)
            try:
                item = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit(frame)
            try:
                value, error = (yield item), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                value, error = None, exc

    def counted(self, fn: Callable, key: str) -> Callable:
        """``fn`` with every call counted under ``key`` (not timed).

        These wrappers sit on per-page and per-flow calls, so they tally
        with ``next()`` on an ``itertools.count`` — one C call, atomic
        under the interpreter lock — instead of taking the tracer lock.
        """
        tally = self._tallies.setdefault(key, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            next(tally)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, *, serve: bool = False) -> None:
        """Wrap the layer boundaries (and, in a server, job execution)."""
        import repro.figures as figures
        import repro.runner.runner as runner_module
        import repro.topology.presets as presets
        from repro.memory.pages import MigrationEngine, PageTable
        from repro.rccl.communicator import RcclCommunicator
        from repro.runner.cache import ResultCache
        from repro.runner.runner import SweepRunner
        from repro.sim.engine import SimEngine
        from repro.sim.fairshare import FairshareSolver, SolverStats
        from repro.sim.flow import FlowNetwork

        tracer = self
        timed = self.timed
        self._patch(
            presets, "mi250x_cluster", timed(presets.mi250x_cluster, "topology.build")
        )
        self._patch(
            RcclCommunicator,
            "__init__",
            timed(RcclCommunicator.__init__, "rccl.comm_init"),
        )
        self._patch(
            figures, "sweep_points", timed(figures.sweep_points, "figures.decompose")
        )
        self._patch(
            figures, "merge_outputs", timed(figures.merge_outputs, "figures.merge")
        )
        # The runner resolves its trampolines from module globals at call
        # time, so patching the module attributes reaches every point.
        for attr in ("execute_point", "execute_point_in_context"):
            self._patch(
                runner_module,
                attr,
                timed(getattr(runner_module, attr), "runner.execute"),
            )

        run_points = timed(SweepRunner.run_points, "runner")

        @functools.wraps(SweepRunner.run_points)
        def counted_run_points(runner: Any, points: Any) -> Any:
            before = (runner.stats.points, runner.stats.executed)
            try:
                return run_points(runner, points)
            finally:
                tracer.count("runner.points", runner.stats.points - before[0])
                tracer.count("runner.executed", runner.stats.executed - before[1])

        self._patch(SweepRunner, "run_points", counted_run_points)

        self._patch(ResultCache, "key_for", timed(ResultCache.key_for, "cache.key"))
        load = timed(ResultCache.load, "cache.load")

        @functools.wraps(ResultCache.load)
        def counted_load(cache: Any, key: str) -> Any:
            hit, value = load(cache, key)
            tracer.count("cache.hits" if hit else "cache.misses")
            return hit, value

        self._patch(ResultCache, "load", counted_load)
        store = timed(ResultCache.store, "cache.store")

        @functools.wraps(ResultCache.store)
        def counted_store(cache: Any, key: str, value: Any) -> None:
            stores = cache.stats.stores
            store(cache, key, value)
            tracer.count("cache.stores", cache.stats.stores - stores)

        self._patch(ResultCache, "store", counted_store)

        engine_run = timed(SimEngine.run, "engine")

        @functools.wraps(SimEngine.run)
        def counted_run(engine: Any, *args: Any, **kwargs: Any) -> Any:
            events = engine.events_delivered
            try:
                return engine_run(engine, *args, **kwargs)
            finally:
                tracer.count("engine.events", engine.events_delivered - events)

        self._patch(SimEngine, "run", counted_run)
        self._patch(
            FlowNetwork, "transfer", self.counted(FlowNetwork.transfer, "flow.transfers")
        )
        for attr in ("add_flow", "remove_flow", "set_capacity"):
            self._patch(
                FairshareSolver,
                attr,
                timed(getattr(FairshareSolver, attr), "fairshare.solve", record=False),
            )
        solver_init = FairshareSolver.__init__

        @functools.wraps(solver_init)
        def registering_init(solver: Any, *args: Any, **kwargs: Any) -> None:
            solver_init(solver, *args, **kwargs)
            with tracer._lock:
                tracer._solver_stats.append(solver.stats)

        self._patch(FairshareSolver, "__init__", registering_init)
        stats_reset = SolverStats.reset

        @functools.wraps(stats_reset)
        def harvesting_reset(stats: Any) -> None:
            tracer._harvest(stats)
            stats_reset(stats)

        self._patch(SolverStats, "reset", harvesting_reset)
        for attr in ("migrate_for_access", "prefetch"):
            self._patch(
                MigrationEngine,
                attr,
                self.timed_steps(getattr(MigrationEngine, attr), "pages.migrate"),
            )
        self._patch(
            PageTable, "migrate", self.counted(PageTable.migrate, "pages.migrate_calls")
        )
        if serve:
            from repro.serve.service import SimService

            execute = timed(SimService._execute, "serve.execute")

            @functools.wraps(SimService._execute)
            def tagged_execute(service: Any, job: Any) -> Any:
                tracer.set_request(job.id)
                return execute(service, job)

            self._patch(SimService, "_execute", tagged_execute)

    def uninstall(self) -> None:
        """Restore every wrapped callable and harvest live solver stats."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        with self._lock:
            live, self._solver_stats = self._solver_stats, []
        for stats in live:
            self._harvest(stats)

    def _harvest(self, stats: Any) -> None:
        with self._lock:
            for name in SOLVER_COUNTERS:
                value = getattr(stats, name)
                if name == "largest_component":
                    self.solver[name] = max(self.solver[name], value)
                else:
                    self.solver[name] += value

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Plain-dict totals (JSON-able; spans excluded)."""
        with self._lock:
            counts = dict(self.counts)
            for key, tally in self._tallies.items():
                # repr(itertools.count(n)) is "count(n)": the next value,
                # which is the number of calls tallied.
                counts[key] = counts.get(key, 0) + int(repr(tally)[6:-1])
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "counts": counts,
                "solver": dict(self.solver),
            }
