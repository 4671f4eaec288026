"""End-to-end benchmark of the reproduction: cold sweeps and a warm service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 60 --trace 0

Workloads (see ``RATIONALE.md``): ``paper-cold`` (all 14 artifacts into
an empty store, then in-process reads and writes) and ``serve-mixed``
(one closed-loop client against ``repro serve``'s service).  A run is a sequence
of passes, each a fresh process (``passes.py``), started until
``--seconds`` is spent (at least :data:`MIN_PASSES`).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced pass of the same inputs and prints the per-layer metrics plus
``trace.overhead_s``.

Every pass's inputs come from ``--seed`` (``workloads.requests_for``) and
are saved with its results in a run record under ``.perfbench/runs/``;
``python3 perfbench/passes.py SPEC OUT`` replays one pass from its spec.
The last line of stdout is the JSON result.  Exit code 2 means the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from workloads import WORKLOADS, requests_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Passes per untraced run, whatever ``--seconds`` says (medians need three).
MIN_PASSES = 3
#: No pass starts once a run has used this many seconds.
DEADLINE_S = 120.0
#: A run still measuring this many seconds after it started is killed,
#: so that it fails within 180 s.
RUN_LIMIT_S = 170.0


def run_pass(
    workload: str, seed: int, index: int, traced: bool, record: Path, timeout: float = 150.0
) -> dict[str, Any]:
    """Run one pass in a fresh process; returns its result plus its spec.

    A pass still running after ``timeout`` seconds is killed with any
    server it started, and :class:`subprocess.TimeoutExpired` is raised.
    """
    tag = f"pass{index:02d}{'-traced' if traced else ''}"
    workdir = ROOT / ".perfbench" / "work" / f"{record.stem}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spec = {
        "workload": workload,
        "seed": seed,
        "index": index,
        "trace": traced,
        "root": str(ROOT),
        "workdir": str(workdir),
        "batch": list(WORKLOADS[workload]["batch"]),
        "requests": requests_for(workload, seed, index),
    }
    spec_path = record.with_name(f"{record.stem}-{tag}.spec.json")
    out_path = record.with_name(f"{record.stem}-{tag}.out.json")
    spec_path.write_text(json.dumps(spec, indent=1))
    # Own session, so a timeout also kills the pass's server child.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passes.py"), str(spec_path), str(out_path)],
        cwd=ROOT,
        env={**os.environ, "REPRO_CACHE_DIR": str(workdir)},
        start_new_session=True,
    )
    try:
        proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    result = json.loads(out_path.read_text())
    result["spec"] = spec_path.name
    return result


# Latency percentiles read 0 only when every request of their kind
# failed, and a run with a failed operation is incorrect anyway.


def _p50(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def _p95(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=20)[18] if len(samples) > 1 else _p50(samples)


def end_to_end(passes: list[dict[str, Any]]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of an untraced run from its passes.

    ``write_p50_ms`` is each pass's median write, averaged over the passes.
    Every write takes the same host work, so the pooled median sits in the
    middle of one latency block and jumps between the host's fast and slow
    states as their share in a run moves; the mean of the passes' medians
    moves with that share instead of jumping.
    """
    reads = [ms for p in passes for ms in p["reads_ms"]]
    writes = [ms for p in passes for ms in p["writes_ms"]]
    requests = len(reads) + len(writes)
    request_s = sum(p["request_s"] for p in passes)
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "read_p50_ms": (_p50(reads), "ms"),
        "read_p95_ms": (_p95(reads), "ms"),
        "write_p50_ms": (statistics.fmean(_p50(p["writes_ms"]) for p in passes), "ms"),
        "req_per_s": (requests / request_s, "1/s"),
    }


#: Unit of each per-layer metric, by name suffix.
_LAYER_UNITS = (("_ms", "ms"), ("_ratio", "ratio"), ("_s", "s"))


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric (counts unless the suffix says otherwise)."""
    return next((unit for suffix, unit in _LAYER_UNITS if name.endswith(suffix)), "count")


def summarize(passes: list[dict[str, Any]], traced: bool) -> dict[str, Any]:
    """The result line of a run: the per-layer metrics of its traced pass
    if ``traced`` (after one untraced pass), else the end-to-end metrics."""
    failed = sum(len(p["failures"]) for p in passes)
    if traced:
        untraced, traced_pass = passes
        values = dict(traced_pass["layers"])
        values["trace.overhead_s"] = traced_pass["run_s"] - untraced["run_s"]
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in sorted(values.items())}
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in end_to_end(passes).items()}
    return {
        "correct": not failed,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running pass's process group is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: checkout lacks src/repro; nothing to measure", file=sys.stderr)
        return 2
    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"

    started = time.perf_counter()
    passes: list[dict[str, Any]] = []

    def run(index: int, traced: bool) -> None:
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        passes.append(run_pass(args.workload, args.seed, index, traced, record, remaining))

    try:
        if args.trace:
            run(0, False)
            run(0, True)
        else:
            while True:
                begun = time.perf_counter()
                run(len(passes), False)
                end = time.perf_counter()
                projected = end - started + (end - begun)
                if len(passes) >= MIN_PASSES and (
                    projected > args.seconds or projected > DEADLINE_S
                ):
                    break
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: pass {len(passes)} failed: {exc}", file=sys.stderr)
        return 1

    failures = [f for p in passes for f in p["failures"]]
    result = summarize(passes, bool(args.trace))
    record.write_text(
        json.dumps(
            {"args": vars(args), "passes": passes, "failures": failures, "result": result},
            indent=1,
        )
    )
    for failure in failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
