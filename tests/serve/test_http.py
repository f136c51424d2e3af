"""HTTP frontend integration tests over a real ephemeral port.

Exercises the whole stack — urllib client → ReproServer →
SimService → SweepRunner — the way ``repro submit`` and the load-test
harness drive it.
"""

import email.message
import http.client
import io
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import BenchmarkError
from repro.serve import (
    JobFailedError,
    ServeClient,
    ServeError,
    ServiceConfig,
    SimService,
    create_server,
)


@pytest.fixture
def server(tmp_path):
    service = SimService(
        ServiceConfig(workers=2, cache_dir=str(tmp_path / "store"))
    )
    srv = create_server(service, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    yield srv, f"http://{host}:{port}"
    srv.shutdown()
    srv.server_close()
    service.close()


@pytest.fixture
def client(server):
    _, url = server
    return ServeClient(url, tenant="pytest", timeout=300.0)


class TestEndpoints:
    def test_health_and_stats(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        from repro import __version__

        assert health["version"] == __version__
        stats = client.stats()
        assert stats["queue_capacity"] == 256
        assert stats["draining"] is False

    def test_stats_latency_percentiles_are_nearest_rank(self, server, client):
        srv, _ = server
        srv.service._latency["run"].extend([0.004, 0.001, 0.003, 0.002])
        # 1..100 ms, shuffled: rank ceil(f * n) - 1 of the sorted list.
        srv.service._latency["sweep"].extend(
            (i * 37 % 100 + 1) / 1e3 for i in range(100)
        )
        latency = client.stats()["latency"]
        assert latency["run"] == pytest.approx(
            {"count": 4, "p50_ms": 2.0, "p95_ms": 4.0, "p99_ms": 4.0}
        )
        assert latency["sweep"] == pytest.approx(
            {"count": 100, "p50_ms": 50.0, "p95_ms": 95.0, "p99_ms": 99.0}
        )

    def test_submit_run_and_wait(self, client):
        job_id = client.submit_run("fig01")
        record = client.wait(job_id, timeout=300)
        assert record["state"] == "done"
        assert record["kind"] == "run"
        assert record["tenant"] == "pytest"
        assert record["result"]["artifact"] == "fig01"
        assert "Topology" in record["result"]["report"]

    def test_submit_whatif_artifact_with_algorithm(self, client):
        job_id = client.submit_whatif(artifact="fig11", algorithm="tree")
        record = client.wait(job_id, timeout=600)
        assert record["state"] == "done"
        assert record["result"]["algorithm"] == "tree"
        assert record["result"]["measurements"] > 0

    def test_event_stream_is_ordered_ndjson(self, client):
        job_id = client.submit_run("fig01")
        events = list(client.events(job_id))
        names = [e["event"] for e in events]
        assert names == ["queued", "running", "done"]
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert all(e["job"] == job_id for e in events)

    def test_metrics_snapshot_counts_requests(self, client):
        job_id = client.submit_run("fig01")
        client.wait(job_id, timeout=300)
        snapshot = client.metrics()
        assert snapshot["counters"]["serve/requests/run"] >= 1
        assert snapshot["counters"]["serve/jobs/done"] >= 1


class TestErrorMapping:
    def test_unknown_job_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.job("j999999")
        assert excinfo.value.status == 404

    def test_unknown_route_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v2/jobs")
        assert excinfo.value.status == 404

    def test_bad_request_400_with_message(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit_run("fig99")
        assert excinfo.value.status == 400
        assert "unknown artifact" in str(excinfo.value)

    def test_invalid_json_400(self, server):
        _, url = server
        request = urllib.request.Request(
            f"{url}/v1/run",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        with excinfo.value as error:  # close the response's socket
            assert error.code == 400

    def test_non_object_body_400(self, server):
        _, url = server
        request = urllib.request.Request(
            f"{url}/v1/run",
            data=b"[1, 2]",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        with excinfo.value as error:  # close the response's socket
            assert error.code == 400

    def test_failed_job_raises_on_wait(self, server, client, monkeypatch):
        srv, _ = server
        monkeypatch.setattr(
            srv.service.queue,
            "_executor",
            lambda job: (_ for _ in ()).throw(RuntimeError("kaboom")),
        )
        job_id = client.submit_run("fig01")
        with pytest.raises(JobFailedError, match="kaboom"):
            client.wait(job_id, timeout=60)


def _handler_threads(srv):
    prefix = f"repro-serve-{srv.server_address[1]}-handler-"
    return [t for t in threading.enumerate() if t.name.startswith(prefix)]


class TestConnectionHandling:
    def test_sequential_requests_reuse_handler_threads(self, server, client):
        srv, _ = server
        for _ in range(50):
            assert client.health()["status"] == "ok"
        # One connection per request; a handler thread may still be
        # closing the last one when the next arrives.
        assert 1 <= len(_handler_threads(srv)) <= 3

    def test_concurrent_clients_keep_the_idle_count_exact(self, server):
        # A lost update of the idle count either hands a connection to a
        # busy thread (it waits, behind an event stream for a whole
        # job) or starts threads that are never reused.
        srv, url = server
        clients, requests = 12, 15
        failures = []

        def hammer():
            client = ServeClient(url, timeout=10.0)
            try:
                for _ in range(requests):
                    client.health()
            except Exception as exc:  # reported below, with the others
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        # Once the last connection is closed, every handler is idle.
        deadline = time.monotonic() + 10.0
        while srv._idle != len(_handler_threads(srv)):
            assert time.monotonic() < deadline, "idle count drifted"
            time.sleep(0.01)

    def test_server_close_releases_handler_threads(self, tmp_path):
        service = SimService(ServiceConfig(workers=1, cache_dir=str(tmp_path)))
        srv = create_server(service, port=0)
        accept = threading.Thread(target=srv.serve_forever, daemon=True)
        accept.start()
        client = ServeClient(
            f"http://{srv.server_address[0]}:{srv.server_address[1]}",
            timeout=10.0,
        )
        try:
            for _ in range(5):
                client.health()
            threads = _handler_threads(srv)
            assert threads
        finally:
            srv.shutdown()
            srv.server_close()
            service.close()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)

    def test_keep_alive_answers_leave_in_one_write(self, server, monkeypatch):
        srv, _ = server
        host, port = srv.server_address[:2]
        writes = []
        sendall = socket.socket.sendall

        def spy(sock, data, *args):
            if sock.getsockname()[1] == port:  # the server's end only
                writes.append(len(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", spy)
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            for _ in range(20):
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
        finally:
            conn.close()
        assert len(writes) == 20

    def test_open_event_streams_do_not_block_new_requests(self, tmp_path):
        service = SimService(ServiceConfig(workers=1, cache_dir=str(tmp_path)))
        gate = threading.Event()
        execute = service.queue._executor

        def blocked(job):
            gate.wait(timeout=60.0)
            return execute(job)

        service.queue._executor = blocked
        srv = create_server(service, port=0)
        accept = threading.Thread(target=srv.serve_forever, daemon=True)
        accept.start()
        host, port = srv.server_address[:2]
        client = ServeClient(f"http://{host}:{port}", tenant="streams", timeout=10.0)
        streams = []
        try:
            job_id = client.submit_run("fig01")
            for _ in range(20):
                conn = http.client.HTTPConnection(host, port, timeout=10.0)
                conn.request("GET", f"/v1/jobs/{job_id}/events")
                streams.append(conn.getresponse())
                conn.close()  # the response owns the socket now
                assert streams[-1].status == 200
            # Every stream holds a handler thread while the worker is
            # blocked; new connections still get one.
            assert len(_handler_threads(srv)) >= 20
            assert client.health()["status"] == "ok"
            queued = client.submit_whatif(scenario="baseline")
            assert client.job(queued)["state"] == "queued"
        finally:
            gate.set()
            for response in streams:
                response.close()
            srv.shutdown()
            srv.server_close()
            service.close()


class TestBackpressureOverHttp:
    def test_429_with_retry_after_header(self, tmp_path):
        service = SimService(
            ServiceConfig(
                workers=1,
                quota_rate=0.001,
                quota_burst=1.0,
                cache_dir=str(tmp_path),
            )
        )
        srv = create_server(service, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        url = f"http://{srv.server_address[0]}:{srv.server_address[1]}"
        try:
            greedy = ServeClient(url, tenant="greedy", timeout=60.0)
            greedy.submit_run("fig01")
            with pytest.raises(ServeError) as excinfo:
                greedy.submit_run("fig01")
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1.0
            # Tenants are isolated: another name still gets through.
            other = ServeClient(url, tenant="other", timeout=60.0)
            other.submit_run("fig01")
        finally:
            srv.shutdown()
            srv.server_close()
            service.close()

    def test_tenant_header_reaches_quota_buckets(self, server, client):
        srv, _ = server
        job_id = client.submit_run("fig01")
        client.wait(job_id, timeout=300)
        assert "pytest" in srv.service.quota.tenants()


class TestDrainOverHttp:
    def test_draining_service_answers_503(self, server, client):
        srv, _ = server
        srv.service._draining = True
        try:
            with pytest.raises(ServeError) as excinfo:
                client.submit_run("fig01")
            assert excinfo.value.status == 503
            assert client.health()["status"] == "draining"
        finally:
            srv.service._draining = False


class TestClientTransport:
    def test_unreachable_server_raises_benchmark_error(self):
        client = ServeClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(BenchmarkError, match="cannot reach"):
            client.health()

    def test_cross_client_dedup_over_http(self, client, server):
        first = client.wait(client.submit_run("fig04"), timeout=300)
        other = ServeClient(client.base_url, tenant="second-team", timeout=300.0)
        second = other.wait(other.submit_run("fig04"), timeout=300)
        assert second["result"]["runner"]["cache_misses"] == 0
        assert second["result"]["canonical"] == first["result"]["canonical"]

    def test_error_answer_closes_its_response(self, monkeypatch):
        # An HTTPError holds the answer's response (and its socket);
        # the client must close it, not leave it to the collector.
        body = io.BytesIO(b'{"error": "quota exhausted"}')
        headers = email.message.Message()
        headers["Retry-After"] = "2"

        def refuse(request, timeout):
            raise urllib.error.HTTPError(request.full_url, 429, "Too Many", headers, body)

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        client = ServeClient("http://127.0.0.1:9")
        with pytest.raises(ServeError) as excinfo:
            client.health()
        assert (excinfo.value.status, excinfo.value.retry_after) == (429, 2.0)
        assert "quota exhausted" in str(excinfo.value)
        assert body.closed
