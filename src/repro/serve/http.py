"""Stdlib HTTP frontend of the simulation service.

``ThreadingHTTPServer`` + ``BaseHTTPRequestHandler`` — no third-party
web framework, matching the repo's stdlib-only dependency policy (the
same gating philosophy as PyYAML: optional niceties degrade, core
paths never require them).

Endpoints (all JSON unless noted)::

    POST /v1/run      {"artifact": "fig06", "params": {...}}
    POST /v1/sweep    {"artifacts": ["fig02", "fig03"], ...}
    POST /v1/whatif   {"scenario": "dense-fabric"} |
                      {"artifact": "fig11", "algorithm": "tree", ...}
    POST /v1/shadow   {"telemetry": "<JSONL>"} | {"records": [...]}
    GET  /v1/jobs/<id>            job status + result when done
    GET  /v1/jobs/<id>/events     NDJSON lifecycle stream (tails until
                                  the job finishes)
    GET  /v1/health               liveness + drain state
    GET  /v1/stats                queue depth, latency percentiles, store
    GET  /v1/metrics              MetricsRegistry snapshot

Status mapping: validation failures → 400, quota/queue backpressure →
429 with ``Retry-After``, draining → 503, unknown job/route → 404.
Submissions answer 202 with the job id; clients poll or stream events.

The tenant is taken from the ``X-Repro-Tenant`` header (or a
``"tenant"`` body field); omitted requests share the configured
default tenant's bucket.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from .jobs import QueueFullError
from .service import (
    BadRequestError,
    QuotaExceededError,
    ServiceDrainingError,
    SimService,
)

#: Bound on accepted request bodies (inline telemetry streams are the
#: largest legitimate payload; anything bigger is a client bug).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Retry-After suggested when the queue (not a quota) is the limiter.
QUEUE_RETRY_AFTER = 1.0


def _encode(payload: Any) -> bytes:
    return json.dumps(payload, default=str).encode("utf-8") + b"\n"


class ServeHandler(BaseHTTPRequestHandler):
    """Routes one connection's requests into the :class:`SimService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # Headers and body leave in separate writes; with Nagle's algorithm
    # the body would wait for the client's delayed ACK (~40 ms) on
    # every response after the first on a kept-alive connection.
    disable_nagle_algorithm = True

    # The service is attached to the server object (one per process);
    # handlers are constructed per connection by the stdlib.
    @property
    def service(self) -> SimService:
        """The :class:`SimService` the owning server dispatches into."""
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        """Log to stderr only when the server was marked ``verbose``."""
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # -- responses ------------------------------------------------------

    def _respond(
        self,
        status: int,
        payload: Any,
        *,
        headers: "dict[str, str] | None" = None,
    ) -> None:
        body = _encode(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self,
        status: int,
        message: str,
        *,
        retry_after: float | None = None,
    ) -> None:
        headers = {}
        if retry_after is not None:
            # Retry-After is delta-seconds; round up so a client that
            # honors it lands after the bucket refills.
            headers["Retry-After"] = str(max(1, int(retry_after + 0.999)))
        self._respond(status, {"error": message}, headers=headers)

    # -- POST: submissions ---------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
        """``POST /v1/<kind>`` — validate, admit, and enqueue a job."""
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if len(parts) != 2 or parts[0] != "v1":
            self._error(404, f"no such endpoint: POST {self.path}")
            return
        kind = parts[1]
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._error(400, "bad Content-Length")
            return
        if length > MAX_BODY_BYTES:
            self._error(413, f"body over {MAX_BODY_BYTES} bytes")
            return
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._error(400, f"request body is not valid JSON: {exc}")
            return
        if not isinstance(payload, dict):
            self._error(400, "request body must be a JSON object")
            return
        tenant = self.headers.get("X-Repro-Tenant")
        try:
            job = self.service.submit(kind, payload, tenant=tenant)
        except QuotaExceededError as exc:
            self._error(429, str(exc), retry_after=exc.retry_after)
            return
        except QueueFullError as exc:
            self._error(429, str(exc), retry_after=QUEUE_RETRY_AFTER)
            return
        except ServiceDrainingError as exc:
            self._error(503, str(exc))
            return
        except BadRequestError as exc:
            self._error(400, str(exc))
            return
        self._respond(
            202,
            {
                "job": job.as_dict(include_result=False),
                "links": {
                    "self": f"/v1/jobs/{job.id}",
                    "events": f"/v1/jobs/{job.id}/events",
                },
            },
        )

    # -- GET: lookup / streams ------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        """``GET`` job records, event streams, health, stats, metrics."""
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if len(parts) >= 2 and parts[0] == "v1":
            if parts[1] == "health" and len(parts) == 2:
                self._respond(
                    200,
                    {
                        "status": (
                            "draining" if self.service.draining else "ok"
                        ),
                        "version": _version(),
                        "queue_depth": self.service.queue.depth,
                        "in_flight": self.service.queue.in_flight,
                    },
                )
                return
            if parts[1] == "stats" and len(parts) == 2:
                self._respond(200, self.service.stats())
                return
            if parts[1] == "metrics" and len(parts) == 2:
                self._respond(200, self.service.metrics.snapshot())
                return
            if parts[1] == "jobs" and len(parts) in (3, 4):
                job = self.service.job(parts[2])
                if job is None:
                    self._error(404, f"no such job: {parts[2]}")
                    return
                if len(parts) == 3:
                    self._respond(200, job.as_dict())
                    return
                if parts[3] == "events":
                    self._stream_events(job)
                    return
        self._error(404, f"no such endpoint: GET {self.path}")

    def _stream_events(self, job: Any) -> None:
        """NDJSON event tail: replay the log, follow until terminal.

        The response length is unknowable up front, so the stream is
        sent with ``Connection: close`` (the HTTP/1.0-style framing
        every client understands) instead of chunked encoding.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        seq = 0
        try:
            while True:
                events = job.events_since(seq)
                for event in events:
                    self.wfile.write(_encode(event))
                self.wfile.flush()
                seq += len(events)
                if job.done and not job.events_since(seq):
                    return
                job.wait_event(seq, timeout=1.0)
        except (BrokenPipeError, ConnectionResetError):
            # The tailing client hung up; nothing to clean up.
            return

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib handler API
        """No deletable resources in v1 — always 404."""
        self._error(404, f"no such endpoint: DELETE {self.path}")


def _version() -> str:
    from .. import __version__

    return __version__


class ReproServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`SimService`."""

    daemon_threads = True
    allow_reuse_address = True
    # The stdlib default listen backlog is 5; a barrier-released load
    # wave opens hundreds of connections in the same millisecond and
    # the kernel RSTs the overflow.  512 comfortably covers the
    # acceptance target (200+ concurrent submitters plus their event
    # streams) while staying under typical somaxconn.
    request_queue_size = 512

    def __init__(self, address: tuple[str, int], service: SimService) -> None:
        super().__init__(address, ServeHandler)
        self.service = service
        self.verbose = False


def create_server(
    service: SimService, host: str = "127.0.0.1", port: int = 0
) -> ReproServer:
    """Bind a server (``port=0`` picks an ephemeral port)."""
    return ReproServer((host, port), service)


def serve_forever(
    server: ReproServer,
    *,
    install_signals: bool = True,
) -> None:
    """Run until SIGTERM/SIGINT, then drain gracefully.

    The signal handler flips the service into draining mode (new
    submissions answer 503) and stops the accept loop from a helper
    thread (``shutdown()`` deadlocks when called from the loop's own
    thread); queued jobs then finish before the call returns.
    """
    if install_signals:

        def _begin_shutdown(signum: int, frame: Any) -> None:
            server.service._draining = True
            threading.Thread(target=server.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _begin_shutdown)
        signal.signal(signal.SIGINT, _begin_shutdown)
    try:
        server.serve_forever()
    finally:
        server.service.drain()
        server.server_close()
