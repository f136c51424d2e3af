"""``repro.Session`` — the one-object front door to the simulator.

Standing up a simulated experiment used to take a four-object
constructor dance::

    topology = frontier_node()
    node = HardwareNode(topology, calibration, trace=True)
    env = SimEnvironment(xnack_enabled=True)
    hip = HipRuntime(node, env)

duplicated (with slight variations) across every example, benchmark
suite and figure driver.  :class:`Session` wires the whole stack —
topology preset, :class:`~repro.hardware.node.HardwareNode`,
:class:`~repro.config.SimEnvironment`,
:class:`~repro.hip.runtime.HipRuntime`, tracer, and the incremental
fair-share solver — behind a single context manager::

    import repro

    with repro.Session(topology="mi250x", obs=repro.ObsConfig(trace=True)) as s:
        a = s.hip.malloc(1 << 30, device=0)
        b = s.hip.malloc(1 << 30, device=1)
        s.run(s.hip.memcpy_peer(b, 1, a, 0))
        print(s.now, s.tracer.timeline())

Sessions are cheap: one per measurement run keeps runs isolated and
deterministic, exactly like the bare objects did.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Sequence

from .config import SimEnvironment
from .configs import ObsConfig, RunnerConfig
from .context import resolve_default
from .core.calibration import CalibrationProfile
from .errors import ConfigurationError
from .hardware.node import HardwareNode
from .hip.runtime import HipRuntime
from .memory.coherence import CoherencePolicy
from .topology.node import NodeTopology
from .topology.presets import (
    dense_hive_node,
    frontier_node,
    mi250x_cluster,
    single_gpu_node,
)

#: Named topology presets accepted by ``Session(topology=...)``.
TOPOLOGY_PRESETS: dict[str, Callable[[], NodeTopology]] = {
    "frontier": frontier_node,
    "frontier-mi250x": frontier_node,
    "mi250x": frontier_node,  # the paper's system — the default
    "single": single_gpu_node,
    "single-mi250x": single_gpu_node,
    "dense-hive": dense_hive_node,
    "mi250x-cluster": mi250x_cluster,  # 4 frontier nodes on NIC rails
}

#: Parametric preset prefix: ``mi250x-cluster-<N>`` builds an N-node
#: cluster (``mi250x-cluster-16`` → 128 GCDs).
_CLUSTER_PREFIX = "mi250x-cluster-"

#: File extensions that mark a topology string as a file path rather
#: than a preset name (``repro-topology/1`` documents).
_TOPOLOGY_FILE_SUFFIXES = (".json", ".yaml", ".yml")


def _looks_like_topology_file(spec: str) -> bool:
    import os

    if spec.lower().endswith(_TOPOLOGY_FILE_SUFFIXES):
        return True
    return os.sep in spec or (os.altsep is not None and os.altsep in spec)


def resolve_topology(topology: "str | NodeTopology | None") -> NodeTopology:
    """Turn a topology spec into a :class:`NodeTopology`.

    Accepts a preset name (``"mi250x"``, ``"mi250x-cluster-<N>"``), a
    path to a ``repro-topology/1`` file (anything ending in
    ``.json``/``.yaml``/``.yml`` or containing a path separator), an
    already-built :class:`NodeTopology`, or ``None`` — which adopts an
    ambient :func:`repro.topology.install_topology` topology when one is
    active and otherwise builds the paper's Fig. 1 node.
    """
    if topology is None:
        return resolve_default()
    if isinstance(topology, NodeTopology):
        return topology
    if isinstance(topology, str):
        if _looks_like_topology_file(topology):
            from .topology.schema import load_topology

            return load_topology(topology)
        key = topology.strip().lower()
        if key.startswith(_CLUSTER_PREFIX):
            suffix = key[len(_CLUSTER_PREFIX):]
            if not suffix.isdigit() or int(suffix) < 2:
                raise ConfigurationError(
                    f"bad cluster preset {topology!r}: expected "
                    f"{_CLUSTER_PREFIX}<nodes> with nodes >= 2"
                )
            return mi250x_cluster(nodes=int(suffix))
        factory = TOPOLOGY_PRESETS.get(key)
        if factory is None:
            known = ", ".join(sorted(TOPOLOGY_PRESETS))
            raise ConfigurationError(
                f"unknown topology preset {topology!r} "
                f"(known: {known}, plus {_CLUSTER_PREFIX}<nodes> "
                f"and topology files ending in "
                f"{'/'.join(_TOPOLOGY_FILE_SUFFIXES)})"
            )
        return factory()
    raise ConfigurationError(
        f"topology must be a preset name, file path or NodeTopology, "
        f"got {topology!r}"
    )


def _resolve_telemetry(telemetry: Any):
    """Coerce ``Session(telemetry=...)`` into a TelemetryStream."""
    if telemetry is None:
        return None
    from .twin.schema import TelemetryStream, load_telemetry

    if isinstance(telemetry, TelemetryStream):
        return telemetry
    if isinstance(telemetry, (str, bytes)) or hasattr(telemetry, "__fspath__"):
        return load_telemetry(telemetry)
    raise ConfigurationError(
        f"telemetry must be a TelemetryStream or a JSONL file path, "
        f"got {telemetry!r}"
    )


class Session:
    """One fully-wired simulated machine plus its software stack.

    Parameters
    ----------
    topology:
        Preset name (``"mi250x"``, ``"frontier"``, ``"single"``,
        ``"dense-hive"``), a :class:`NodeTopology`, or ``None`` for the
        paper's Fig. 1 node.
    calibration:
        Measurement-derived constants; defaults to the MI250X profile.
    env:
        A :class:`SimEnvironment`, or ``None`` to build one from
        ``**env_flags`` (e.g. ``xnack_enabled=True``,
        ``sdma_enabled=False``) — the simulated counterparts of
        ``HSA_XNACK`` / ``HSA_ENABLE_SDMA`` / …
    obs:
        An :class:`~repro.configs.ObsConfig` grouping the tracer,
        metrics, and span settings.  ``None`` means observe nothing
        (near-zero cost).
    runner:
        A :class:`~repro.configs.RunnerConfig` providing the defaults
        for :meth:`runner` (jobs, cache, captures).
    coherence:
        Optional :class:`CoherencePolicy` override for the HIP layer.
    faults:
        A :class:`~repro.faults.FaultScenario` to inject into this
        session's node (timed link degradations/failures, SDMA stalls,
        page-migration storms).  ``None`` (the default) adopts an
        ambient :func:`repro.faults.install` context if one is active;
        pass an *empty* scenario to shield a session from the ambient
        one.
    rccl_algorithm:
        Default collective algorithm for communicators built via
        :meth:`rccl_communicator` — ``"ring"``, ``"tree"``,
        ``"double_binary_tree"``, ``"hierarchical_ring"`` or ``"auto"``
        (topology-aware selection).  ``None`` (the default) defers to
        an ambient :func:`repro.rccl.install_algorithm` context, then
        to the paper-faithful ring.
    telemetry:
        A machine telemetry stream for digital-twin shadow mode — a
        :class:`~repro.twin.TelemetryStream` or the path of a
        ``repro-telemetry/1`` JSONL file.  Stored for :meth:`shadow`
        and :meth:`calibrate`; it does not change how the session
        simulates.
    """

    def __init__(
        self,
        topology: str | NodeTopology | None = None,
        *,
        calibration: CalibrationProfile | None = None,
        env: SimEnvironment | None = None,
        obs: ObsConfig | None = None,
        runner: RunnerConfig | None = None,
        coherence: CoherencePolicy | None = None,
        faults: Any = None,
        rccl_algorithm: str | None = None,
        telemetry: Any = None,
        **env_flags: Any,
    ) -> None:
        if env is not None and env_flags:
            raise ConfigurationError(
                "pass either env= or environment keyword flags, not both: "
                f"{sorted(env_flags)}"
            )
        obs = obs if obs is not None else ObsConfig()
        self.obs = obs
        self.runner_config = runner if runner is not None else RunnerConfig()
        if rccl_algorithm is not None:
            from .rccl.algorithms import check_algorithm

            check_algorithm(rccl_algorithm)
        self.rccl_algorithm = rccl_algorithm
        self.telemetry = _resolve_telemetry(telemetry)
        self.topology = resolve_topology(topology)
        if env is None:
            try:
                env = SimEnvironment(**env_flags)
            except TypeError as exc:
                raise ConfigurationError(
                    f"unknown environment flag(s) {sorted(env_flags)}: {exc}"
                ) from exc
        self.env = env
        self.node = HardwareNode(
            self.topology,
            calibration,
            trace=obs.trace,
            trace_capacity=obs.trace_capacity,
            metrics=obs.metrics,
            metrics_capacity=obs.metrics_capacity,
            spans=obs.spans,
            faults=faults,
        )
        self.hip = HipRuntime(self.node, self.env, coherence=coherence)
        self._closed = False

    # -- context management --------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def close(self) -> None:
        """Drain outstanding simulated work (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.node.engine.run()

    # -- convenience accessors -----------------------------------------------

    @property
    def engine(self):
        """The deterministic DES engine."""
        return self.node.engine

    @property
    def network(self):
        """The fluid-flow network."""
        return self.node.network

    @property
    def tracer(self):
        """The session's tracer (enabled iff ``obs=ObsConfig(trace=True)``)."""
        return self.node.tracer

    @property
    def calibration(self) -> CalibrationProfile:
        """The calibration profile in effect."""
        return self.node.calibration

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self.node.engine.now

    @property
    def num_gcds(self) -> int:
        """Number of GCDs on the simulated node."""
        return self.node.num_gcds

    # -- drivers ----------------------------------------------------------------

    def run(self, process: Generator, name: str = "") -> Any:
        """Drive a simulation process to completion; returns its value.

        Solver work counters reset at each run boundary, so
        :meth:`stats` and :meth:`metrics` report the numbers of the
        most recent run instead of accumulating across reused sessions
        (``repro perf`` reuses one session for repeated measurements).
        """
        self.node.network.solver.stats.reset()
        return self.node.engine.run_process(process, name)

    def run_all(self) -> float:
        """Drain the event queue; returns the final simulated time.

        Resets solver work counters at the boundary, like :meth:`run`.
        """
        self.node.network.solver.stats.reset()
        return self.node.engine.run()

    # -- stack factories ---------------------------------------------------------

    def mpi_world(
        self, rank_gcds: Sequence[int] | None = None, *, retry: Any = None
    ):
        """A GPU-aware MPI world on this session's node.

        ``retry`` is an optional :class:`~repro.faults.RetryPolicy`
        governing transfer retries when a link fails mid-message.
        """
        from .mpi.comm import MpiWorld

        return MpiWorld(self.node, self.env, rank_gcds=rank_gcds, retry=retry)

    def rccl_communicator(self, gcds: Sequence[int] | None = None, **kwargs: Any):
        """An RCCL communicator over (a subset of) this node's GCDs.

        Accepts ``retry=`` (a :class:`~repro.faults.RetryPolicy`) to
        rebuild the ring and retry steps when a link fails
        mid-collective, and ``algorithm=`` to pick a collective
        algorithm (defaults to the session's ``rccl_algorithm``).
        """
        from .rccl.communicator import RcclCommunicator

        if "algorithm" not in kwargs and self.rccl_algorithm is not None:
            kwargs["algorithm"] = self.rccl_algorithm
        return RcclCommunicator(self.node, gcds, env=self.env, **kwargs)

    def runner(
        self,
        jobs: int | str | None = None,
        *,
        use_cache: bool | None = None,
        cache_dir: str | None = None,
        faults: Any = None,
        topology: "str | NodeTopology | None" = None,
        algorithm: str | None = None,
    ):
        """A :class:`~repro.runner.SweepRunner` for fan-out sweeps.

        Arguments left unset fall back to the session's
        :class:`~repro.configs.RunnerConfig` (``runner=`` at
        construction).  The runner spawns a *fresh* session per sim
        point (that is what keeps points independent), so this is a
        factory hanging off the front-door object, not a view of this
        session's node.  Pass ``faults=`` (a
        :class:`~repro.faults.FaultScenario`) for a fault-sensitivity
        sweep, ``topology=`` (a preset name, topology file path or
        :class:`NodeTopology`) to drive every point on that topology,
        or ``algorithm=`` to select the points' collective algorithm;
        this session's own scenario/topology do not propagate
        automatically.
        """
        from .runner import SweepRunner

        config = self.runner_config
        if jobs is None:
            jobs = config.jobs
        if use_cache is None:
            use_cache = config.cache
        if cache_dir is None:
            cache_dir = config.cache_dir
        return SweepRunner(
            jobs,
            use_cache=use_cache,
            cache_dir=cache_dir,
            capture_metrics=config.capture_metrics,
            capture_spans=config.capture_spans,
            faults=faults,
            topology=resolve_topology(topology) if topology is not None else None,
            algorithm=algorithm,
        )

    # -- digital twin -----------------------------------------------------------

    def _twin_stream(self, telemetry: Any):
        stream = (
            _resolve_telemetry(telemetry) if telemetry is not None else self.telemetry
        )
        if stream is None:
            raise ConfigurationError(
                "no telemetry: pass telemetry= here or at Session construction"
            )
        return stream

    def shadow(
        self,
        telemetry: Any = None,
        *,
        window: float | None = None,
        alert_threshold: float | None = None,
        runner: Any = None,
        metrics: Any = None,
    ):
        """Shadow-replay telemetry against this session's configuration.

        Re-simulates the stream (the session's own from
        ``telemetry=`` at construction, or the one passed here) under
        this session's topology and calibration, and returns the
        :class:`~repro.twin.ShadowReport` drift ledger.  ``window``
        partitions the replay into event-time windows; ``runner``
        routes the per-window grids through a
        :class:`~repro.runner.SweepRunner` (caching, spans, faults);
        ``metrics`` receives per-link/tier/interface ``drift/...``
        time series.
        """
        from .twin.replay import DEFAULT_ALERT_THRESHOLD, shadow_replay

        return shadow_replay(
            self._twin_stream(telemetry),
            topology=self.topology,
            calibration=self.node.calibration,
            window=window,
            alert_threshold=(
                alert_threshold
                if alert_threshold is not None
                else DEFAULT_ALERT_THRESHOLD
            ),
            runner=runner,
            metrics=metrics,
        )

    def calibrate(self, telemetry: Any = None, **kwargs: Any):
        """Fit calibration constants to telemetry on this topology.

        Starts from this session's profile and returns the
        :class:`~repro.twin.CalibrationFit`; keyword arguments flow
        through to :func:`repro.twin.fit_calibration` (``fields=``,
        ``max_passes=``, …).  The session itself is unchanged — build
        a new one with ``calibration=fit.profile`` to adopt the fit.
        """
        from .twin.calibrate import fit_calibration

        return fit_calibration(
            self._twin_stream(telemetry),
            topology=self.topology,
            base=self.node.calibration,
            **kwargs,
        )

    # -- introspection ----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Engine + solver work counters (see ``docs/modeling.md``)."""
        stats: dict[str, Any] = {"sim_time": self.node.engine.now}
        stats.update(self.node.engine.stats())
        stats.update(self.node.network.solver.stats.as_dict())
        stats["trace_records"] = len(self.node.tracer)
        stats["spans"] = len(self.node.spans)
        return stats

    def metrics(self) -> dict[str, Any]:
        """Snapshot of the session's metrics registry.

        Empty sections unless the session was built with
        ``obs=ObsConfig(metrics=True)`` (or a shared registry).  See
        :mod:`repro.obs.metrics` for the schema.
        """
        self.node.network.solver.stats.publish(self.node.metrics)
        return self.node.metrics.snapshot()

    def spans(self) -> list[dict[str, Any]]:
        """Causal spans recorded so far, as JSON-able dicts.

        Empty unless the session was built with
        ``obs=ObsConfig(spans=True)`` (or a shared recorder).  See :mod:`repro.obs.spans` for the schema.
        """
        return self.node.spans.as_dicts()

    def critical_path(self):
        """Critical path over this session's span DAG.

        Returns a :class:`~repro.obs.attribution.CriticalPath`.
        """
        from .obs.attribution import critical_path

        return critical_path(self.spans())

    def explain(self, *, top: int = 10) -> str:
        """Ranked blame breakdown of this session's critical path."""
        from .obs.attribution import explain_spans

        return explain_spans(self.spans(), top=top)

    def export_trace(
        self, path: str | None = None, **provenance_extra: Any
    ) -> dict[str, Any]:
        """Chrome-trace payload of this session's timeline.

        Combines span slices with causality flow-arrows (one per
        operation, when span recording or tracing is on), counter
        tracks from the metrics registry, and provenance
        (calibration/topology fingerprints, package version, git SHA).
        The tracer's records are those same finished spans, so they are
        not drawn again.  With ``path``, also writes the validated JSON
        file.
        """
        from . import obs

        payload = obs.build_chrome_trace(
            [],
            metrics=self.node.metrics,
            spans=self.spans() if self.node.spans else None,
            provenance=obs.build_provenance(
                calibration=self.node.calibration,
                topology=self.topology,
                extra=provenance_extra,
            ),
        )
        if path is not None:
            obs.write_chrome_trace(path, payload)
        return payload

    def describe(self) -> str:
        """Topology plus calibration summary text."""
        return self.node.describe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"t={self.node.engine.now:.3g}s"
        return f"<Session {self.topology.name!r} {state}>"
