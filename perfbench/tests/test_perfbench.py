"""Tests of the benchmark harness itself.

Run from the checkout root: ``python3 -m pytest perfbench/tests``.
The count-determinism tests run two traced passes per workload (about
a minute in all).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import golden  # noqa: E402
import passes  # noqa: E402
from run import ROOT, end_to_end, layer_unit, run_pass, summarize  # noqa: E402
from workloads import (  # noqa: E402
    READS_PER_WRITE,
    SLOW_READ,
    WORKLOADS,
    WRITE_POOL,
    case_key,
    cases,
    requests_for,
    writes_per_pass,
)


class TestRequestGenerator:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_same_seed_same_requests(self, workload):
        assert requests_for(workload, 3, 1) == requests_for(workload, 3, 1)
        assert requests_for(workload, 3, 1) != requests_for(workload, 4, 1)
        assert requests_for(workload, 3, 1) != requests_for(workload, 3, 2)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_read_counts_and_fresh_writes(self, workload):
        requests = requests_for(workload, 11, 0)
        reads = Counter(r["artifact"] for r in requests if r["op"] == "read")
        assert reads == Counter(WORKLOADS[workload]["reads"])
        sizes = [r["params"]["message_bytes"] for r in requests if r["op"] == "write"]
        assert len(sizes) == writes_per_pass(workload) == sum(reads.values()) // READS_PER_WRITE
        assert len(set(sizes)) == len(sizes) and set(sizes) <= set(WRITE_POOL)
        assert 1 << 30 not in WRITE_POOL  # fig10's default is stored by the cold batch

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_p95_sits_high_in_the_slow_read_block(self, workload):
        reads = WORKLOADS[workload]["reads"]
        assert len({n for eid, n in reads.items() if eid != SLOW_READ}) == 1
        total, slow = sum(reads.values()), reads[SLOW_READ]
        assert 0.75 <= (0.95 * total - (total - slow)) / slow <= 0.85


class TestGolden:
    def test_every_request_has_an_expected_result(self):
        assert set(golden.load_expected()) == set(cases())
        for workload in WORKLOADS:
            for request in requests_for(workload, 5, 0):
                assert case_key(request["artifact"], request["params"]) in cases()

    def test_ulp_reorder_passes_model_change_fails(self):
        want = ["fig06", [[1, 5.0e10, "B/s", [["dst", 1]]]]]
        ulp = ["fig06", [[1, 5.0e10 * (1 + 2.0**-52), "B/s", [["dst", 1]]]]]
        drift = ["fig06", [[1, 5.0e10 * (1 + 1e-6), "B/s", [["dst", 1]]]]]
        assert golden.mismatch(ulp, want) is None
        assert golden.mismatch(drift, want) is not None
        assert golden.mismatch(["fig07", want[1]], want) is not None
        assert golden.mismatch([want[0], []], want) is not None


def test_exceptions_count_as_failed_operations(monkeypatch, tmp_path):
    """A raising batch or request fails its operations; the pass still reports."""
    from repro import figures
    from repro.runner import SweepRunner

    def broken_run_many(self, ids, **params):
        raise RuntimeError("injected batch fault")

    real_report = figures.report

    def report(artifact, result):
        if artifact == "tab02":
            raise RuntimeError("injected report fault")
        return real_report(artifact, result)

    monkeypatch.setattr(SweepRunner, "run_many", broken_run_many)
    monkeypatch.setattr(figures, "report", report)
    spec = {
        "workload": "paper-cold",
        "trace": False,
        "root": str(ROOT),
        "workdir": str(tmp_path),
        "batch": ["tab01", "tab02"],
        "requests": [
            {"op": "read", "artifact": "tab01", "params": {}},
            {"op": "read", "artifact": "tab02", "params": {}},
            {"op": "write", "artifact": "fig10", "params": {"message_bytes": WRITE_POOL[0]}},
        ],
    }
    result = passes.cold_pass(spec)
    assert result["attempted"] == 5
    assert len(result["failures"]) == 3  # two batch artifacts and the tab02 read
    assert len(result["reads_ms"]) == 1 and len(result["writes_ms"]) == 1
    line = summarize([result], traced=False)
    assert line["correct"] is False and line["failed"] == 3 and line["attempted"] == 5


def _counts(result):
    return {k: v for k, v in result["layers"].items() if layer_unit(k) == "count"}


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    """Two traced passes of one seed agree on every count metric."""
    record = ROOT / ".perfbench" / "runs" / f"test-counts-{workload}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    first = run_pass(workload, 7, 0, True, record)
    second = run_pass(workload, 7, 0, True, record)
    assert not first["failures"] and not second["failures"]
    assert _counts(first) == _counts(second)
    assert first["layers"]["runner.key_calls"] > 0
    # Every declared metric is emitted, with its declared unit.
    names = {**first["layers"], "trace.overhead_s": 0.0}
    assert {n: layer_unit(n) for n in names} == _declared("per_layer")
    passes = [first, second]
    assert {n: u for n, (_, u) in end_to_end(passes).items()} == _declared("end_to_end")
