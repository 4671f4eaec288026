"""Expected canonical results and the comparison the benchmark gates on.

``expected.json`` holds ``ExperimentResult.canonical()`` of every request
a workload can make (:func:`workloads.cases`: the 14 artifacts at their
defaults and fig10 at every size of the write pool), JSON-encoded the way
``repro serve`` encodes it.
Runs are compared against it at a relative tolerance of 1e-9: an
ulp-level floating-point reordering passes, a model change fails.

Regenerate (only when the model is meant to change)::

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
RTOL = 1e-9


def normalize(canonical: Any) -> Any:
    """The JSON view of a canonical tuple (what an HTTP client sees)."""
    return json.loads(json.dumps(canonical, default=str))


def mismatch(got: Any, want: Any, path: str = "") -> str | None:
    """First difference between two JSON values, or ``None``."""
    if isinstance(want, bool) or isinstance(got, bool):
        return None if got is want else f"{path}: {got!r} != {want!r}"
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if got == want or math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0):
            return None
        return f"{path}: {got!r} != {want!r}"
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = mismatch(g, w, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def load_expected() -> dict[str, Any]:
    """Case key -> expected normalized canonical."""
    return json.loads(EXPECTED.read_text())


def main() -> int:
    """Recompute every case from the source tree and rewrite ``expected.json``."""
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    from repro.runner import SweepRunner

    from workloads import cases

    runner = SweepRunner(1, use_cache=False)
    expected = {
        key: normalize(runner.run_experiment(artifact, **params).canonical())
        for key, (artifact, params) in cases().items()
    }
    EXPECTED.write_text(json.dumps(expected, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} cases to {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
