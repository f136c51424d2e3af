"""The simulation service: validated submissions over the job queue.

:class:`SimService` is the HTTP-free core of ``repro serve`` — the
frontend (:mod:`repro.serve.http`) only parses requests and serializes
responses; everything with behavior lives here so it can be unit
tested without sockets:

- request validation per endpoint kind (unknown artifacts, scenarios
  and telemetry are rejected *before* a job is created);
- per-tenant token-bucket quotas and bounded-queue admission
  (:class:`QuotaExceededError` / :class:`~repro.serve.jobs.QueueFullError`
  → HTTP 429 + ``Retry-After``);
- dispatch into :class:`~repro.runner.SweepRunner` against one shared
  content-addressed result store, so identical queries from different
  tenants deduplicate for free (the cache key already covers params +
  calibration + topology + faults);
- service metrics (queue depth, in-flight jobs, per-endpoint request
  counters and latency) published into an
  :class:`~repro.obs.MetricsRegistry`;
- graceful drain: :meth:`drain` stops admissions and finishes the
  queue, for SIGTERM handling.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..context import SimContext
from ..errors import BenchmarkError
from ..obs.metrics import MetricsRegistry
from ..runner import ResultCache, SweepRunner
from ..runner.runner import available_cpus
from .jobs import Job, JobQueue, JobState, QueueFullError
from .quota import QuotaPolicy

#: Request kinds ↔ the POST /v1/<kind> endpoints.
KINDS = ("run", "sweep", "whatif", "shadow")

#: Tenant names must be short and printable (they key quota buckets
#: and appear in logs/metrics).
_MAX_TENANT = 64

#: Latency samples retained per endpoint for percentile reporting.
_LATENCY_WINDOW = 4096


class QuotaExceededError(BenchmarkError):
    """The tenant's token bucket is empty."""

    def __init__(self, tenant: str, retry_after: float) -> None:
        super().__init__(
            f"tenant {tenant!r} is over quota; retry in {retry_after:.2f}s"
        )
        self.tenant = tenant
        self.retry_after = retry_after


class ServiceDrainingError(BenchmarkError):
    """The service is shutting down and no longer admits jobs."""

    def __init__(self) -> None:
        super().__init__("service is draining; submit to another replica")


class BadRequestError(BenchmarkError):
    """The request body failed validation (HTTP 400)."""


@dataclass
class ServiceConfig:
    """Tunables of one :class:`SimService` instance."""

    #: Job-queue worker threads ("auto" = schedulable CPUs).
    workers: int | str = 4
    #: Bounded-queue admission limit (queued, not in-flight).
    queue_capacity: int = 256
    #: Per-tenant sustained submissions per second.
    quota_rate: float = 50.0
    #: Per-tenant burst ceiling (bucket capacity).
    quota_burst: float = 100.0
    #: Worker processes each job's SweepRunner may use.  The service
    #: already runs jobs concurrently on threads, so per-job pools
    #: default to serial — oversubscription would thrash the CPUs the
    #: job workers share.
    runner_jobs: int = 1
    #: Shared result-store location (None = $REPRO_CACHE_DIR default).
    cache_dir: str | None = None
    #: Disable the shared store entirely (benchmarking cold paths).
    use_cache: bool = True
    #: Tenant assumed when a request names none.
    default_tenant: str = "anonymous"


def nearest_rank(samples: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile of unsorted samples (0.0 when empty).

    The smallest sample with at least ``fraction`` of all samples at or
    below it: rank ``ceil(fraction * n) - 1`` of the sorted list.
    """
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


class SimService:
    """Long-lived, multi-tenant front door to the simulator."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        quota: QuotaPolicy | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        workers = self.config.workers
        if workers == "auto" or workers == 0:
            workers = available_cpus()
        self.metrics = metrics or MetricsRegistry()
        self.quota = quota or QuotaPolicy(
            self.config.quota_rate, self.config.quota_burst
        )
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._latency: dict[str, deque[float]] = {
            kind: deque(maxlen=_LATENCY_WINDOW) for kind in KINDS
        }
        self._draining = False
        self.started_at = time.time()
        self.queue = JobQueue(
            self._execute, workers=int(workers), capacity=self.config.queue_capacity
        )

    # -- admission ------------------------------------------------------

    @property
    def draining(self) -> bool:
        """True once a drain started — new submissions are refused."""
        return self._draining

    def _tenant(self, payload: Mapping[str, Any], tenant: str | None) -> str:
        name = tenant or payload.get("tenant") or self.config.default_tenant
        if not isinstance(name, str) or not name.strip():
            raise BadRequestError("tenant must be a non-empty string")
        name = name.strip()
        if len(name) > _MAX_TENANT or not name.isprintable():
            raise BadRequestError(
                f"tenant name must be printable and <= {_MAX_TENANT} chars"
            )
        return name

    def submit(
        self,
        kind: str,
        payload: Mapping[str, Any] | None = None,
        *,
        tenant: str | None = None,
    ) -> Job:
        """Validate, quota-check and enqueue one request.

        Raises :class:`BadRequestError` (400),
        :class:`QuotaExceededError` (429),
        :class:`~repro.serve.jobs.QueueFullError` (429) or
        :class:`ServiceDrainingError` (503).
        """
        if kind not in KINDS:
            raise BadRequestError(
                f"unknown request kind {kind!r} (known: {', '.join(KINDS)})"
            )
        if self._draining:
            raise ServiceDrainingError()
        payload = dict(payload or {})
        tenant_name = self._tenant(payload, tenant)
        request = self._validate(kind, payload)
        retry_after = self.quota.admit(tenant_name)
        if retry_after > 0.0:
            self.metrics.counter("serve/rejected/quota").inc()
            raise QuotaExceededError(tenant_name, retry_after)
        job = Job(
            id=self.queue.next_id(),
            kind=kind,
            tenant=tenant_name,
            request=request,
        )
        with self._jobs_lock:
            self._jobs[job.id] = job
        try:
            self.queue.submit(job)
        except QueueFullError:
            with self._jobs_lock:
                del self._jobs[job.id]
            self.metrics.counter("serve/rejected/queue").inc()
            raise
        self.metrics.counter(f"serve/requests/{kind}").inc()
        self.metrics.gauge("serve/queue_depth").set(self.queue.depth)
        return job

    # -- validation -----------------------------------------------------

    def _validate(self, kind: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Normalize a request body; raises :class:`BadRequestError`."""
        from .. import figures

        payload.pop("tenant", None)
        if kind == "run":
            artifact = payload.get("artifact")
            if not isinstance(artifact, str):
                raise BadRequestError("run requires an 'artifact' string")
            known = figures.all_ids()
            artifact = figures.canonical_id(artifact)
            if artifact not in known:
                raise BadRequestError(
                    f"unknown artifact {payload.get('artifact')!r} "
                    f"(valid: {', '.join(known)})"
                )
            params = payload.get("params") or {}
            if not isinstance(params, Mapping):
                raise BadRequestError("'params' must be an object")
            return {"artifact": artifact, "params": dict(params)}
        if kind == "sweep":
            artifacts = payload.get("artifacts")
            if not isinstance(artifacts, (list, tuple)) or not artifacts:
                raise BadRequestError(
                    "sweep requires a non-empty 'artifacts' list"
                )
            known = figures.all_ids()
            if artifacts == ["all"]:
                resolved = list(known)
            else:
                resolved = [
                    figures.canonical_id(a) if isinstance(a, str) else a
                    for a in artifacts
                ]
                unknown = [a for a in resolved if a not in known]
                if unknown:
                    raise BadRequestError(
                        f"unknown artifact(s): {unknown!r} "
                        f"(valid: {', '.join(known)})"
                    )
            params = payload.get("params") or {}
            if not isinstance(params, Mapping):
                raise BadRequestError("'params' must be an object")
            return {"artifacts": resolved, "params": dict(params)}
        if kind == "whatif":
            return self._validate_whatif(payload)
        # shadow
        text = payload.get("telemetry")
        records = payload.get("records")
        if (text is None) == (records is None):
            raise BadRequestError(
                "shadow requires exactly one of 'telemetry' (JSONL text) "
                "or 'records' (list of record objects)"
            )
        from ..errors import TelemetryError
        from ..twin.schema import loads_telemetry, record_from_json, stream_from_records

        try:
            if text is not None:
                stream = loads_telemetry(str(text))
            else:
                if not isinstance(records, (list, tuple)):
                    raise BadRequestError("'records' must be a list")
                stream = stream_from_records(
                    record_from_json(entry, line=i + 1)
                    for i, entry in enumerate(records)
                )
        except TelemetryError as exc:
            raise BadRequestError(f"bad telemetry: {exc}") from None
        window = payload.get("window")
        if window is not None and (
            not isinstance(window, (int, float)) or window <= 0
        ):
            raise BadRequestError("'window' must be a positive number")
        threshold = payload.get("alert_threshold")
        if threshold is not None and not isinstance(threshold, (int, float)):
            raise BadRequestError("'alert_threshold' must be a number")
        return {
            "stream": stream,
            "window": window,
            "alert_threshold": threshold,
        }

    def _validate_whatif(self, payload: dict[str, Any]) -> dict[str, Any]:
        """A what-if is a scenario validation or an artifact override run.

        - ``{"scenario": NAME}`` answers "does the fabric still behave
          consistently under this design variant?" by running the
          validation battery on the scenario's topology+calibration.
        - ``{"artifact": ID, "topology"/"algorithm": ...}`` answers
          "what does this measurement look like on that fabric /
          collective algorithm?" by running the artifact under a
          :class:`~repro.context.SimContext`; the job carries
          ``(artifact, params, context)``.
        """
        from .. import figures
        from ..core.whatif import SCENARIOS

        scenario = payload.get("scenario")
        artifact = payload.get("artifact")
        if scenario is None and artifact is None:
            raise BadRequestError(
                "whatif requires 'scenario' and/or 'artifact'"
            )
        request: dict[str, Any] = {}
        if scenario is not None:
            if scenario not in SCENARIOS:
                raise BadRequestError(
                    f"unknown scenario {scenario!r} "
                    f"(valid: {', '.join(sorted(SCENARIOS))})"
                )
            request["scenario"] = scenario
        if artifact is not None:
            known = figures.all_ids()
            resolved = (
                figures.canonical_id(artifact)
                if isinstance(artifact, str)
                else artifact
            )
            if resolved not in known:
                raise BadRequestError(
                    f"unknown artifact {artifact!r} "
                    f"(valid: {', '.join(known)})"
                )
            if scenario is not None:
                raise BadRequestError(
                    "whatif takes 'scenario' or 'artifact', not both "
                    "(scenario variants change the calibration, which "
                    "artifact sweeps pin)"
                )
            topology = payload.get("topology")
            resolved_topology = None
            if topology is not None:
                from ..errors import ConfigurationError, TopologyError
                from ..session import resolve_topology

                try:
                    resolved_topology = resolve_topology(topology)
                except (OSError, ConfigurationError, TopologyError, ValueError) as exc:
                    raise BadRequestError(f"bad topology: {exc}") from None
            algorithm = payload.get("algorithm")
            if algorithm is not None:
                from ..errors import RcclError
                from ..rccl.algorithms import check_algorithm

                try:
                    check_algorithm(algorithm)
                except RcclError as exc:
                    raise BadRequestError(str(exc)) from None
            params = payload.get("params") or {}
            if not isinstance(params, Mapping):
                raise BadRequestError("'params' must be an object")
            request.update(
                {
                    "artifact": resolved,
                    "params": dict(params),
                    "context": SimContext(
                        topology=resolved_topology, algorithm=algorithm
                    ),
                    # The request's own spellings, echoed in the result.
                    "echo": {"topology": topology, "algorithm": algorithm},
                }
            )
        return request

    # -- execution ------------------------------------------------------

    def _runner(self, context: SimContext = SimContext()) -> SweepRunner:
        """A fresh per-job runner over the *shared* result store.

        Each job gets its own :class:`ResultCache` object pointing at
        the one shared directory: the store (and therefore cross-client
        dedup) is shared, while hit/miss accounting stays per job.
        ``context`` is a what-if job's context.
        """
        return SweepRunner(
            self.config.runner_jobs,
            use_cache=self.config.use_cache,
            cache_dir=self.config.cache_dir,
            faults=context.faults,
            topology=context.topology,
            algorithm=context.algorithm,
        )

    def _execute(self, job: Job) -> Any:
        request = job.request
        started = time.perf_counter()
        if job.kind == "run":
            runner = self._runner()
            result = runner.run_experiment(
                request["artifact"], **request["params"]
            )
            payload = self._run_payload(request["artifact"], result, runner)
        elif job.kind == "sweep":
            runner = self._runner()
            results = runner.run_many(
                request["artifacts"], **request["params"]
            )
            payload = {
                "artifacts": request["artifacts"],
                "results": {
                    artifact_id: self._run_payload(artifact_id, result, None)
                    for artifact_id, result in results.items()
                },
                "runner": runner.stats.as_dict(),
            }
        elif job.kind == "whatif":
            payload = self._execute_whatif(job)
        else:  # shadow
            from ..twin.replay import shadow_replay

            runner = self._runner()
            report = shadow_replay(
                request["stream"],
                window=request["window"],
                alert_threshold=(
                    request["alert_threshold"]
                    if request["alert_threshold"] is not None
                    else 0.05
                ),
                runner=runner,
            )
            payload = {
                "shadow": report.as_dict(),
                "runner": runner.stats.as_dict(),
            }
        elapsed = time.perf_counter() - started
        self._latency[job.kind].append(elapsed)
        self.metrics.timeseries(f"serve/latency/{job.kind}").observe(
            time.time() - self.started_at, elapsed
        )
        self.metrics.counter("serve/jobs/done").inc()
        self.metrics.gauge("serve/queue_depth").set(self.queue.depth)
        return payload

    def _execute_whatif(self, job: Job) -> dict[str, Any]:
        request = job.request
        if "scenario" in request:
            from ..core.validation import validate_node
            from ..core.whatif import get_scenario

            scenario = get_scenario(request["scenario"])
            runner = self._runner()
            report = validate_node(
                scenario.topology, scenario.calibration, runner=runner
            )
            return {
                "scenario": scenario.name,
                "description": scenario.description,
                "passed": report.passed,
                "validation": report.as_dict(),
                "runner": runner.stats.as_dict(),
            }
        runner = self._runner(request["context"])
        result = runner.run_experiment(
            request["artifact"], **request["params"]
        )
        payload = self._run_payload(request["artifact"], result, runner)
        payload.update(request["echo"])
        return payload

    @staticmethod
    def _run_payload(
        artifact_id: str, result: Any, runner: SweepRunner | None
    ) -> dict[str, Any]:
        from .. import figures

        payload: dict[str, Any] = {
            "artifact": artifact_id,
            "title": result.title,
            "measurements": len(result),
            "wall_seconds": result.wall_seconds,
            "canonical": result.canonical(),
            "report": figures.report(artifact_id, result),
        }
        if runner is not None:
            payload["runner"] = runner.stats.as_dict()
        return payload

    # -- lookup / introspection ----------------------------------------

    def job(self, job_id: str) -> Job | None:
        """Look up one job by id (``None`` when unknown)."""
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """A snapshot list of every job the service remembers."""
        with self._jobs_lock:
            return list(self._jobs.values())

    def stats(self) -> dict[str, Any]:
        """Queue/latency/cache overview (the ``GET /v1/stats`` body)."""
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        by_state: dict[str, int] = {}
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
        latency = {
            kind: {
                "count": len(samples),
                "p50_ms": nearest_rank(samples, 0.50) * 1e3,
                "p95_ms": nearest_rank(samples, 0.95) * 1e3,
                "p99_ms": nearest_rank(samples, 0.99) * 1e3,
            }
            for kind, samples in self._latency.items()
            if samples
        }
        out: dict[str, Any] = {
            "draining": self._draining,
            "queue_depth": self.queue.depth,
            "in_flight": self.queue.in_flight,
            "queue_capacity": self.queue.capacity,
            "jobs": by_state,
            "tenants": self.quota.tenants(),
            "latency": latency,
            "uptime_seconds": time.time() - self.started_at,
        }
        if self.config.use_cache:
            store = ResultCache(self.config.cache_dir)
            out["store"] = {
                "directory": str(store.directory),
                "entries": store.entry_count(),
                "bytes": store.total_bytes(),
            }
        return out

    # -- shutdown -------------------------------------------------------

    def drain(self) -> None:
        """Graceful shutdown: refuse new jobs, finish the queue."""
        self._draining = True
        self.queue.close(drain=True)

    def close(self) -> None:
        """Immediate shutdown (tests): drop queued jobs."""
        self._draining = True
        self.queue.close(drain=False)
