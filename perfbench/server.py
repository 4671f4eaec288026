"""The ``serve-mixed`` program process: ``SimService`` behind ``create_server``.

Usage: ``python3 perfbench/server.py SPEC.json`` (started by ``passes.py``).

Setup imports the program, loads the default topology, starts one
service worker behind the HTTP frontend on a loopback port and pre-warms
an empty result store with the artifacts it serves reads of.  It then prints one JSON line
(``port``, ``setup_s`` and the pre-warm check) and serves until a line
arrives on stdin.  On that line it stops the server, records its peak
RSS, runs every distinct request of the spec in-process against the
same store (the reference each response is checked against, besides
``expected.json``) and prints a second JSON line.  Quotas sit far above a single closed-loop client's rate, so
any 429 is a real failure.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import golden  # noqa: E402
from passes import peak_rss_mb, whatif_body  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from repro.runner import SweepRunner
    from repro.serve import ServiceConfig, SimService, create_server
    from repro.topology.context import resolve_default

    resolve_default()
    service = SimService(
        ServiceConfig(
            workers=1,
            queue_capacity=16,
            quota_rate=1e6,
            quota_burst=1e6,
            runner_jobs=1,
            cache_dir=spec["workdir"],
        )
    )
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    artifacts = list(WORKLOADS[spec["workload"]]["reads"])
    expected = golden.load_expected()
    try:
        warm = SweepRunner(1, cache_dir=spec["workdir"]).run_many(artifacts)
        found = {
            a: golden.mismatch(golden.normalize(warm[a].canonical()), expected[a])
            for a in artifacts
        }
    except Exception as exc:  # noqa: BLE001 - failed operations, not a crash
        found = dict.fromkeys(artifacts, f"{type(exc).__name__}: {exc}")
    failures = [f"pre-warm {a}: {error}" for a, error in found.items() if error]
    setup_s = time.perf_counter() - STARTED

    tracer = None
    if spec["trace"]:
        from tracer import LayerTracer

        tracer = LayerTracer().install()
    ready = {
        "port": server.server_address[1],
        "setup_s": setup_s,
        "attempted": len(artifacts),
        "failures": failures,
    }
    print(json.dumps(ready), flush=True)
    sys.stdin.readline()

    server.shutdown()
    server.server_close()
    service.drain()
    thread.join()
    rss = peak_rss_mb()
    layers = tracer.layer_metrics() if tracer else None
    if tracer:
        tracer.uninstall()
    runner = SweepRunner(1, cache_dir=spec["workdir"])
    references = {}
    for request in spec["requests"]:
        key = json.dumps(whatif_body(request), sort_keys=True)
        if key not in references:
            try:
                result = runner.run_experiment(request["artifact"], **request["params"])
                references[key] = golden.normalize(result.canonical())
            except Exception as exc:  # noqa: BLE001 - a mismatch for every such response
                references[key] = f"in-process run failed: {type(exc).__name__}: {exc}"
    print(json.dumps({"peak_rss_mb": rss, "layers": layers, "references": references}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
