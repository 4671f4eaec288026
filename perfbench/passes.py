"""One pass of a workload, in a fresh process.

Usage: ``python3 perfbench/passes.py SPEC.json OUT.json``

The spec (written by ``run.py`` into the run record) names the workload,
whether the pass is traced, the checkout root, a scratch directory inside
the checkout, the cold batch and the pass's request list.  The pass writes one JSON
object to ``OUT.json``:

- ``setup_s``: imports and default-topology load (plus, for
  ``serve-mixed``, server start and pre-warm), timed from the top of the
  process;
- ``run_s``: wall seconds of the timed main phase — the cold batch, or
  for ``serve-mixed`` the whole request list;
- ``peak_rss_mb``: peak resident set of the process running the program;
- ``reads_ms`` / ``writes_ms``: per-request latencies;
- ``request_s``: wall seconds of the request phase;
- ``attempted`` / ``failed`` / ``failures``: operations and what failed;
- ``layers``: per-layer metrics (traced passes only).

``paper-cold`` runs everything in this process.  ``serve-mixed`` runs the
program in a child (``server.py``) and drives it from here as one
closed-loop HTTP client.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import http.client  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

import golden  # noqa: E402
from workloads import case_key  # noqa: E402

#: Seconds any single request may take before it counts as failed.
REQUEST_TIMEOUT = 60.0
#: Tenant header of the benchmark client.
TENANT = "perfbench"


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Outcome:
    """Operations attempted and failed in one pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, got: Any, *wants: Any) -> None:
        """Count one operation; record it failed if ``got`` differs from any of ``wants``."""
        self.attempted += 1
        for want in wants:
            found = golden.mismatch(got, want)
            if found:
                self.failures.append(f"{what}: {found}")
                return

    def fail(self, what: str, error: BaseException | str) -> None:
        """Count one operation that failed outright."""
        self.attempted += 1
        if isinstance(error, BaseException):
            error = f"{type(error).__name__}: {error}"
        self.failures.append(f"{what}: {error}")


def expected_for(expected: dict[str, Any], request: dict[str, Any]) -> Any:
    """The recorded canonical result of a request."""
    return expected[case_key(request["artifact"], request["params"])]


# -- cold workloads (in-process) --------------------------------------


def cold_pass(spec: dict[str, Any]) -> dict[str, Any]:
    """Setup, cold batch into an empty store, then the request list.

    An exception in the batch fails every artifact of it; an exception
    in a request fails that request.  Either way the pass goes on.
    """
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from repro import figures
    from repro.runner import SweepRunner
    from repro.topology.context import resolve_default

    resolve_default()  # the preset every node builds on
    setup_s = time.perf_counter() - STARTED

    tracer = None
    if spec["trace"]:
        from tracer import LayerTracer

        tracer = LayerTracer().install()
    expected = golden.load_expected()
    outcome = Outcome()
    store = spec["workdir"]

    # Cold batch: one run_many, as ``repro run all`` issues it.
    batch = spec["batch"]
    started = time.perf_counter()
    try:
        results = SweepRunner(1, cache_dir=store).run_many(batch)
    except Exception as exc:  # noqa: BLE001 - a failed operation, not a crash
        results = None
        for artifact in batch:
            outcome.fail(f"batch {artifact}", exc)
    run_s = time.perf_counter() - started
    if results is not None:
        for artifact in batch:
            try:
                got = golden.normalize(results[artifact].canonical())
            except Exception as exc:  # noqa: BLE001 - a failed operation, not a crash
                outcome.fail(f"batch {artifact}", exc)
                continue
            outcome.check(f"batch {artifact}", got, expected[artifact])

    # Requests: what the service does per whatif job, minus HTTP.
    reads_ms: list[float] = []
    writes_ms: list[float] = []
    answers: list[Any] = []
    phase = time.perf_counter()
    for request in spec["requests"]:
        begun = time.perf_counter()
        try:
            runner = SweepRunner(1, cache_dir=store)
            result = runner.run_experiment(request["artifact"], **request["params"])
            figures.report(request["artifact"], result)
            answers.append(result.canonical())
        except Exception as exc:  # noqa: BLE001 - a failed operation, not a crash
            answers.append(exc)
            continue
        elapsed = (time.perf_counter() - begun) * 1e3
        (reads_ms if request["op"] == "read" else writes_ms).append(elapsed)
    request_s = time.perf_counter() - phase
    rss = peak_rss_mb()
    layers = tracer.layer_metrics() if tracer else None
    if tracer:
        tracer.uninstall()

    for request, answer in zip(spec["requests"], answers):
        what = json.dumps(request)
        if isinstance(answer, Exception):
            outcome.fail(what, answer)
        else:
            outcome.check(what, golden.normalize(answer), expected_for(expected, request))
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": rss,
        "reads_ms": reads_ms,
        "writes_ms": writes_ms,
        "request_s": request_s,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "layers": layers,
    }


# -- serve-mixed (closed-loop HTTP client) -----------------------------


def _json_request(host: str, port: int, method: str, path: str, body: Any = None) -> tuple[int, Any]:
    """One request on a fresh connection, as ``repro submit``'s urllib client sends it."""
    payload = None if body is None else json.dumps(body).encode()
    headers = {"X-Repro-Tenant": TENANT}
    if payload is not None:
        headers["Content-Type"] = "application/json"
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT)
    try:
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


def _wait_done(host: str, port: int, job_id: str) -> str:
    """Tail the job's NDJSON events until its terminal event."""
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events", headers={"X-Repro-Tenant": TENANT})
        response = conn.getresponse()
        if response.status != 200:
            return f"HTTP {response.status}"
        for line in response:
            event = json.loads(line)["event"]
            if event in ("done", "failed"):
                return event
        return "event stream ended early"
    finally:
        conn.close()


def whatif_body(request: dict[str, Any]) -> dict[str, Any]:
    """The ``POST /v1/whatif`` body of a request (also its reference key)."""
    return {"artifact": request["artifact"], "params": request["params"]}


def serve_pass(spec: dict[str, Any], spec_path: str) -> dict[str, Any]:
    """Start the server child, drive the request list, stop it."""
    server = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("server.py")), spec_path],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        cwd=spec["root"],
    )
    try:
        ready = json.loads(server.stdout.readline() or "null")
        if not ready:
            raise RuntimeError("server exited during setup")
        host, port = "127.0.0.1", ready["port"]
        outcome = Outcome()
        outcome.attempted += ready["attempted"]
        outcome.failures += ready["failures"]
        responses = _drive(host, port, spec["requests"], outcome)
        server.stdin.write("stop\n")
        server.stdin.flush()
        final = json.loads(server.stdout.readline() or "null")
        if not final:
            raise RuntimeError("server exited before reporting")
        server.wait(timeout=REQUEST_TIMEOUT)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    # Each response against its recorded result and the server process's
    # own in-process result for the same request.
    expected = golden.load_expected()
    references = final["references"]
    for request, answer in zip(spec["requests"], responses["answers"]):
        if answer is None:
            continue  # already counted as failed
        reference = references[json.dumps(whatif_body(request), sort_keys=True)]
        outcome.check(json.dumps(request), answer, expected_for(expected, request), reference)
    layers = None
    if spec["trace"]:
        layers = dict(final["layers"])
        layers.update(responses["serve"])
    return {
        "setup_s": ready["setup_s"],
        "run_s": responses["run_s"],
        "peak_rss_mb": final["peak_rss_mb"],
        "reads_ms": responses["reads_ms"],
        "writes_ms": responses["writes_ms"],
        "request_s": responses["run_s"],
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "layers": layers,
    }


def _drive(host: str, port: int, requests: list[dict[str, Any]], outcome: Outcome) -> dict[str, Any]:
    """One closed-loop client: submit, wait for ``done``, fetch, repeat.

    Latency runs from the POST to the ``done`` line of the job's event
    stream.  The job record is fetched afterwards, outside the latency,
    for the canonical result and the serve-layer phase times.  Every
    request opens its own connection, as the urllib-based ``ServeClient``
    does: on a kept-alive connection each response stalls ~40 ms
    (the server's separate header and body writes meet delayed ACK).
    """
    reads_ms: list[float] = []
    writes_ms: list[float] = []
    answers: list[Any] = []
    serve = dict.fromkeys(
        ("serve.submit_ms", "serve.queue_wait_ms", "serve.execute_ms", "serve.http_ms"), 0.0
    )
    served = failed = 0
    started = time.perf_counter()
    for request in requests:
        what = json.dumps(request)
        answers.append(None)
        try:
            begun = time.perf_counter()
            status, body = _json_request(host, port, "POST", "/v1/whatif", whatif_body(request))
            submitted = time.perf_counter()
            if status != 202:
                raise RuntimeError(f"HTTP {status}: {body}")
            job_id = body["job"]["id"]
            event = _wait_done(host, port, job_id)
            finished = time.perf_counter()
            status, record = _json_request(host, port, "GET", f"/v1/jobs/{job_id}")
            if event != "done" or status != 200:
                raise RuntimeError(f"job {event}, HTTP {status}: {record.get('error')}")
        except Exception as exc:  # noqa: BLE001 - a failed operation, not a crash
            failed += 1
            outcome.fail(what, exc)
            continue
        latency = finished - begun
        (reads_ms if request["op"] == "read" else writes_ms).append(latency * 1e3)
        answers[-1] = record["result"]["canonical"]
        served += 1
        serve["serve.submit_ms"] += (submitted - begun) * 1e3
        serve["serve.queue_wait_ms"] += (record["started"] - record["created"]) * 1e3
        serve["serve.execute_ms"] += (record["finished"] - record["started"]) * 1e3
        serve["serve.http_ms"] += (latency - record["latency_seconds"]) * 1e3
    run_s = time.perf_counter() - started
    serve["serve.requests"] = served + failed
    serve["serve.failed"] = failed
    return {
        "run_s": run_s,
        "reads_ms": reads_ms,
        "writes_ms": writes_ms,
        "answers": answers,
        "serve": serve,
    }


#: Serve-layer metrics of a workload that issues no HTTP request.
SERVE_IDLE = {
    "serve.submit_ms": 0.0,
    "serve.queue_wait_ms": 0.0,
    "serve.execute_ms": 0.0,
    "serve.http_ms": 0.0,
    "serve.requests": 0,
    "serve.failed": 0,
}


def main(argv: list[str]) -> int:
    spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text())
    if spec["workload"] == "serve-mixed":
        result = serve_pass(spec, spec_path)
    else:
        result = cold_pass(spec)
    if spec["trace"] and spec["workload"] != "serve-mixed":
        result["layers"].update(SERVE_IDLE)
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
