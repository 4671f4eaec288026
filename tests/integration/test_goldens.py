"""Every artifact matches its committed golden digest.

``goldens.json`` holds a SHA-256 of ``repr(figures.run(id).canonical())``
for each of the 14 artifacts, plus one digest of fig06's causal span
list and its ranked blame.  Determinism tests compare two runs of the
same code; these compare against outputs committed before a refactor,
so a drift that every code path shares still fails here.

A digest changes only with an intended model change.  Regenerate with::

    PYTHONPATH=src python tests/integration/test_goldens.py \\
        > tests/integration/goldens.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import figures
from repro.obs import blame_ranking
from repro.runner import SweepRunner

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())
SPANS_KEY = "fig06_spans_blame"


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def artifact_digest(experiment_id: str) -> str:
    return digest(figures.run(experiment_id).canonical())


def spans_blame_digest() -> str:
    runner = SweepRunner(use_cache=False, capture_spans=True)
    runner.run_experiment("fig06")
    spans = runner.stats.spans
    return digest((spans, blame_ranking(spans)))


def test_goldens_cover_every_artifact():
    assert set(GOLDENS) == set(figures.all_ids()) | {SPANS_KEY}


@pytest.mark.parametrize("experiment_id", figures.all_ids())
def test_artifact_matches_golden(experiment_id):
    assert artifact_digest(experiment_id) == GOLDENS[experiment_id]


def test_fig06_spans_and_blame_match_golden():
    assert spans_blame_digest() == GOLDENS[SPANS_KEY]


if __name__ == "__main__":
    goldens = {i: artifact_digest(i) for i in figures.all_ids()}
    goldens[SPANS_KEY] = spans_blame_digest()
    print(json.dumps(goldens, indent=2, sort_keys=True))
