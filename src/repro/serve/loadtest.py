"""Load-test harness for the simulation service.

Stands up a real :class:`~repro.serve.http.ReproServer` on an
ephemeral port and hammers it the way production traffic would:

1. **cold wave** — ``clients`` threads (default 200) release from a
   barrier simultaneously, each submitting one what-if query drawn
   from a small pool of distinct questions (scenario validations and
   artifact runs under algorithm overrides) and following the job's
   NDJSON event stream to completion;
2. **warm wave** — the exact same submissions again: every point is
   already in the shared result store, so the wave measures the
   service's dedup fast path (the harness *asserts* zero cache misses
   and bit-identical results);
3. **quota burst** — one tenant fires well past its token bucket and
   the harness asserts the service answered 429 with ``Retry-After``.

Latency is measured submit→done per request; the warm wave's p50/p95/
p99 and sustained request rate are the headline numbers recorded in
``BENCH_core.json`` and guarded by ``check_bench.py``.  The entry
point is the ``serve`` section of ``repro perf`` (``repro perf --smoke
--only serve`` runs it alone).
"""

from __future__ import annotations

import json
import math
import tempfile
import threading
import time
from typing import Any

from ..errors import BenchmarkError
from .client import ServeClient
from .http import create_server
from .service import ServiceConfig, SimService

#: What-if question pool the waves cycle through (distinct queries →
#: distinct cache keys, so the cold wave does real work while the warm
#: wave must be pure dedup).
_QUERIES: tuple[dict[str, Any], ...] = (
    {"scenario": "baseline"},
    {"scenario": "unconstrained-sdma"},
    {"scenario": "double-numa-ports"},
    {"scenario": "dense-fabric"},
    {"artifact": "fig01"},
    {"artifact": "fig02"},
    {"artifact": "fig04"},
    {"artifact": "fig09"},
    {"artifact": "fig11", "algorithm": "ring"},
    {"artifact": "fig11", "algorithm": "tree"},
    {"artifact": "fig11", "algorithm": "double_binary_tree"},
    {"artifact": "fig12", "algorithm": "ring"},
)


def _percentile_ms(samples: "list[float]", fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (seconds), in ms."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[rank] * 1e3


def _strip_volatile(value: Any) -> Any:
    """Drop host-timing/accounting keys so results compare by content."""
    if isinstance(value, dict):
        return {
            k: _strip_volatile(v)
            for k, v in value.items()
            if k not in {"runner", "wall_seconds", "latency_seconds"}
        }
    if isinstance(value, list):
        return [_strip_volatile(v) for v in value]
    return value


def _await_result(client: ServeClient, job_id: str) -> dict[str, Any]:
    """Follow the event stream to completion, then fetch the record."""
    for event in client.events(job_id):
        if event["event"] in ("done", "failed"):
            break
    record = client.job(job_id)
    if record["state"] != "done":
        raise BenchmarkError(
            f"load-test job {job_id} ended {record['state']}: "
            f"{record.get('error')}"
        )
    return record


def _wave(
    base_url: str, submissions: "list[tuple[str, dict[str, Any]]]"
) -> "tuple[list[float], list[dict[str, Any]]]":
    """Fire all submissions concurrently; returns (latencies, records)."""
    barrier = threading.Barrier(len(submissions))
    latencies: "list[float]" = [0.0] * len(submissions)
    records: "list[dict[str, Any]]" = [{}] * len(submissions)
    failures: "list[BaseException]" = []

    def one(index: int, tenant: str, payload: dict[str, Any]) -> None:
        client = ServeClient(base_url, tenant=tenant, timeout=600.0)
        try:
            barrier.wait(timeout=120.0)
            started = time.perf_counter()
            job_id = client.submit("whatif", payload)
            records[index] = _await_result(client, job_id)
            latencies[index] = time.perf_counter() - started
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=one, args=(i, tenant, payload), daemon=True)
        for i, (tenant, payload) in enumerate(submissions)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if failures:
        raise BenchmarkError(
            f"{len(failures)} load-test request(s) failed; first: "
            f"{failures[0]!r}"
        ) from failures[0]
    return latencies, records + [{"wall": wall}]


def run_load_test(
    *,
    clients: int = 200,
    tenants: int = 8,
    workers: int = 4,
    quota_rate: float = 50.0,
    quota_burst: float = 64.0,
    cache_dir: "str | None" = None,
    host: str = "127.0.0.1",
) -> dict[str, Any]:
    """Run the three-phase load test; returns the report dictionary.

    Raises :class:`BenchmarkError` when any acceptance property fails:
    a request errors, the warm wave misses the cache or changes a
    result, or the over-quota burst is not throttled with 429s.
    """
    if clients < tenants:
        raise ValueError("need at least one client per tenant")
    owned_tmp = None
    if cache_dir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-serve-bench-")
        cache_dir = owned_tmp.name
    config = ServiceConfig(
        workers=workers,
        queue_capacity=max(64, clients * 2),
        quota_rate=quota_rate,
        quota_burst=quota_burst,
        cache_dir=cache_dir,
    )
    service = SimService(config)
    server = create_server(service, host=host, port=0)
    accept_thread = threading.Thread(target=server.serve_forever, daemon=True)
    accept_thread.start()
    base_url = f"http://{server.server_address[0]}:{server.server_address[1]}"
    try:
        submissions = [
            (f"tenant-{i % tenants}", dict(_QUERIES[i % len(_QUERIES)]))
            for i in range(clients)
        ]
        cold_latencies, cold_records = _wave(base_url, submissions)
        cold_wall = cold_records.pop()["wall"]
        warm_latencies, warm_records = _wave(base_url, submissions)
        warm_wall = warm_records.pop()["wall"]

        # Cross-client dedup: the warm wave may not execute anything,
        # and must serve results identical to the cold wave's.
        warm_misses = sum(
            r["result"].get("runner", {}).get("cache_misses", 0)
            for r in warm_records
        )
        identical = all(
            json.dumps(_strip_volatile(c["result"]), sort_keys=True, default=str)
            == json.dumps(_strip_volatile(w["result"]), sort_keys=True, default=str)
            for c, w in zip(cold_records, warm_records)
        )
        if warm_misses:
            raise BenchmarkError(
                f"warm wave missed the shared cache {warm_misses} time(s); "
                "cross-client dedup is broken"
            )
        if not identical:
            raise BenchmarkError(
                "warm resubmission changed a result; the store is not "
                "serving deterministic replays"
            )

        # Backpressure: one tenant fires far past its burst allowance.
        burst_sent = int(quota_burst * 2.5)
        burster = ServeClient(base_url, tenant="burster", timeout=600.0)
        accepted: "list[str]" = []
        rejected = 0
        retry_after_seen = False
        for _ in range(burst_sent):
            try:
                accepted.append(burster.submit("whatif", {"artifact": "fig01"}))
            except BenchmarkError as exc:
                status = getattr(exc, "status", None)
                if status != 429:
                    raise
                rejected += 1
                if getattr(exc, "retry_after", None):
                    retry_after_seen = True
        if rejected == 0 or not retry_after_seen:
            raise BenchmarkError(
                f"over-quota burst of {burst_sent} was not throttled "
                f"({rejected} rejections)"
            )
        for job_id in accepted:
            _await_result(burster, job_id)

        stats = service.stats()
        report = {
            "clients": clients,
            "tenants": tenants,
            "workers": workers,
            "unique_queries": len(_QUERIES),
            "cold": {
                "wall_seconds": cold_wall,
                "requests_per_second": clients / cold_wall,
                "p50_ms": _percentile_ms(cold_latencies, 0.50),
                "p95_ms": _percentile_ms(cold_latencies, 0.95),
                "p99_ms": _percentile_ms(cold_latencies, 0.99),
            },
            "warm": {
                "wall_seconds": warm_wall,
                "requests_per_second": clients / warm_wall,
                "p50_ms": _percentile_ms(warm_latencies, 0.50),
                "p95_ms": _percentile_ms(warm_latencies, 0.95),
                "p99_ms": _percentile_ms(warm_latencies, 0.99),
            },
            # Headline keys (flat, for BENCH_core.json / check_bench).
            "serve_requests_per_second": clients / warm_wall,
            "serve_whatif_p99_ms": _percentile_ms(warm_latencies, 0.99),
            "warm_cache_misses": warm_misses,
            "warm_identical": identical,
            "burst": {
                "sent": burst_sent,
                "accepted": len(accepted),
                "rejected": rejected,
                "retry_after_seen": retry_after_seen,
            },
            "store_entries": stats.get("store", {}).get("entries", 0),
        }
        return report
    finally:
        server.shutdown()
        server.server_close()
        service.drain()
        if owned_tmp is not None:
            owned_tmp.cleanup()
