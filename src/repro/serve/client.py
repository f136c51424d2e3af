"""Tiny stdlib client for ``repro serve``.

Backs the ``repro submit`` CLI verb, the load-test harness and the
integration tests; uses :mod:`urllib.request` only, so any machine
that can run the simulator can drive a remote one.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Iterator, Mapping

from ..errors import BenchmarkError


class ServeError(BenchmarkError):
    """A non-2xx response from the service."""

    def __init__(
        self,
        status: int,
        message: str,
        *,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after = retry_after


class JobFailedError(BenchmarkError):
    """The submitted job finished in the ``failed`` state."""


class ServeClient:
    """One tenant's handle on a running simulation service."""

    def __init__(
        self,
        base_url: str,
        *,
        tenant: str | None = None,
        timeout: float = 60.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout

    # -- transport ------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: "Mapping[str, Any] | None" = None,
    ) -> Any:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload, default=str).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.tenant is not None:
            headers["X-Repro-Tenant"] = self.tenant
        request = urllib.request.Request(
            self.base_url + path, data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            with exc:  # the error holds the response's socket
                retry_after = None
                header = exc.headers.get("Retry-After") if exc.headers else None
                if header is not None:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        pass
                try:
                    detail = json.loads(exc.read().decode("utf-8"))
                    message = detail.get("error", str(detail))
                except (ValueError, OSError):
                    message = exc.reason or "request failed"
            raise ServeError(
                exc.code, str(message), retry_after=retry_after
            ) from None
        except urllib.error.URLError as exc:
            raise BenchmarkError(
                f"cannot reach {self.base_url}: {exc.reason}"
            ) from None

    # -- submissions ----------------------------------------------------

    def submit(self, kind: str, payload: Mapping[str, Any]) -> str:
        """POST one request; returns the job id."""
        answer = self._request("POST", f"/v1/{kind}", payload)
        return answer["job"]["id"]

    def submit_run(
        self, artifact: str, params: "Mapping[str, Any] | None" = None
    ) -> str:
        """``POST /v1/run`` one artifact; returns the job id."""
        return self.submit("run", {"artifact": artifact, "params": dict(params or {})})

    def submit_sweep(
        self,
        artifacts: "list[str] | tuple[str, ...]",
        params: "Mapping[str, Any] | None" = None,
    ) -> str:
        """``POST /v1/sweep`` several artifacts; returns the job id."""
        return self.submit(
            "sweep",
            {"artifacts": list(artifacts), "params": dict(params or {})},
        )

    def submit_whatif(self, **payload: Any) -> str:
        """``POST /v1/whatif`` (scenario or artifact+overrides); job id."""
        return self.submit("whatif", payload)

    def submit_shadow(self, **payload: Any) -> str:
        """``POST /v1/shadow`` with an inline telemetry stream; job id."""
        return self.submit("shadow", payload)

    # -- lookup ---------------------------------------------------------

    def job(self, job_id: str) -> dict[str, Any]:
        """``GET /v1/jobs/<id>`` — the current job record."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 300.0,
        poll: float = 0.05,
    ) -> dict[str, Any]:
        """Poll until the job is terminal; returns its final record.

        Raises :class:`JobFailedError` on a failed job and
        :class:`BenchmarkError` on timeout.
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] == "done":
                return record
            if record["state"] == "failed":
                raise JobFailedError(
                    f"job {job_id} failed: {record.get('error')}"
                )
            if time.monotonic() >= deadline:
                raise BenchmarkError(
                    f"job {job_id} still {record['state']} after {timeout}s"
                )
            time.sleep(poll)

    def events(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Stream the job's NDJSON event tail (blocks until terminal)."""
        request = urllib.request.Request(
            f"{self.base_url}/v1/jobs/{job_id}/events",
            headers=(
                {"X-Repro-Tenant": self.tenant} if self.tenant else {}
            ),
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as resp:
            for line in resp:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    # -- service introspection -----------------------------------------

    def health(self) -> dict[str, Any]:
        """``GET /v1/health`` — liveness, version and queue depth."""
        return self._request("GET", "/v1/health")

    def stats(self) -> dict[str, Any]:
        """``GET /v1/stats`` — queue/store/latency aggregates."""
        return self._request("GET", "/v1/stats")

    def metrics(self) -> dict[str, Any]:
        """``GET /v1/metrics`` — the service MetricsRegistry snapshot."""
        return self._request("GET", "/v1/metrics")
