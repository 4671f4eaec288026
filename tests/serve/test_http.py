"""HTTP frontend integration tests over a real ephemeral port.

Exercises the whole stack — urllib client → ThreadingHTTPServer →
SimService → SweepRunner — the way ``repro submit`` and the load-test
harness drive it.
"""

import http.client
import json
import threading
import time
import urllib.parse
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


    def test_keep_alive_requests_do_not_stall(self, server):
        # Headers and body go out as separate writes; with Nagle on,
        # the body waits for the client's delayed ACK (~40 ms on Linux)
        # on every response after the first on a kept-alive connection.
        _, url = server
        parts = urllib.parse.urlsplit(url)
        connection = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=30
        )
        try:
            connection.request("GET", "/v1/health")
            connection.getresponse().read()
            start = time.perf_counter()
            for _ in range(5):
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        assert elapsed < 0.1, f"5 keep-alive requests took {elapsed:.3f}s"


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
        assert excinfo.value.code == 400

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
        assert excinfo.value.code == 400

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
