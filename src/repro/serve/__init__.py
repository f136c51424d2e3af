"""Simulation-as-a-service: the long-lived ``repro serve`` frontend.

The ROADMAP's production story: one resident simulator process
answering "what does this transfer/collective cost on this fabric?"
for many concurrent clients, with the content-addressed
:class:`~repro.runner.ResultCache` promoted to a shared multi-tenant
result store (identical questions from different tenants deduplicate
for free, because cache keys already cover params + calibration +
topology + faults).

Layers, bottom up:

- :mod:`repro.serve.quota` — per-tenant token buckets;
- :mod:`repro.serve.jobs` — bounded async job queue + worker threads;
- :mod:`repro.serve.service` — validation, admission, dispatch into
  :class:`~repro.runner.SweepRunner`, metrics, graceful drain;
- :mod:`repro.serve.http` — stdlib ``ThreadingHTTPServer`` frontend
  (``POST /v1/{run,sweep,whatif,shadow}``, ``GET /v1/jobs/<id>`` and
  its NDJSON ``/events`` stream, health/stats/metrics);
- :mod:`repro.serve.client` — urllib client (``repro submit``);
- :mod:`repro.serve.loadtest` — the load test behind ``repro perf``'s
  ``serve`` section.
"""

from .client import JobFailedError, ServeClient, ServeError
from .http import ReproServer, create_server, serve_forever
from .jobs import Job, JobQueue, JobState, QueueFullError
from .loadtest import run_load_test
from .quota import QuotaPolicy, TokenBucket
from .service import (
    BadRequestError,
    KINDS,
    QuotaExceededError,
    ServiceConfig,
    ServiceDrainingError,
    SimService,
)

__all__ = [
    "BadRequestError",
    "Job",
    "JobFailedError",
    "JobQueue",
    "JobState",
    "KINDS",
    "QueueFullError",
    "QuotaExceededError",
    "QuotaPolicy",
    "ReproServer",
    "ServeClient",
    "ServeError",
    "ServiceConfig",
    "ServiceDrainingError",
    "SimService",
    "TokenBucket",
    "create_server",
    "run_load_test",
    "serve_forever",
]
