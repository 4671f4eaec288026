"""Workload definitions and the seeded request generator.

A run of a workload is a sequence of *passes*; each pass is a fresh
process that sets up, optionally runs a cold batch into an empty result
store, then serves a fixed list of requests.  The request list of pass
``i`` is a pure function of ``(workload, seed, i)``: reads come in the
workload's fixed counts per artifact, writes re-run fig10 with sizes
drawn without replacement from :data:`WRITE_POOL`, one write per
:data:`READS_PER_WRITE` reads, all in a seeded shuffle.  The program
only ever sees these requests.
"""

from __future__ import annotations

import random
from typing import Any

#: The paper's 14 artifacts (``repro.figures.all_ids()`` order).
PAPER_IDS = (
    "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
    "fig08", "fig09", "fig10", "fig11", "fig12", "tab01", "tab02",
)

#: The ten artifacts ``serve-mixed`` pre-warms and reads.
CHEAP_IDS = (
    "fig01", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
    "fig10", "tab01", "tab02",
)

#: Reads per write, on every workload.  An unverified assumption: the
#: repository records no serve traffic to derive a read:write share from.
READS_PER_WRITE = 9

#: The slowest read on both workloads (warm fig06, 15-40 ms; every other
#: read is under 10 ms).  It is read more often than the rest so that the
#: p95 read lands about four fifths of the way into its latency block.
#: The host runs fig06 in a fast (~20 ms) and a slow (~33 ms) state that
#: alternate every second or two; a percentile in the middle of the block,
#: where equal counts put it, jumps between the two from run to run.
SLOW_READ = "fig06"

#: Per workload: the cold batch and the reads per artifact per pass.
#: Every read but :data:`SLOW_READ` has the same count.  On
#: ``paper-cold`` (13 x 18 + 72 = 306 reads) p95 sits 79 % into the fig06
#: block and p50 in the middle of fig08's; on ``serve-mixed`` (9 x 36 +
#: 108 = 432) p95 sits 80 % into the fig06 block and p50 among fig04,
#: fig05, fig09 and fig10, whose reads take the same time.
WORKLOADS: dict[str, dict[str, Any]] = {
    "paper-cold": {
        "batch": PAPER_IDS,
        "reads": {eid: 72 if eid == SLOW_READ else 18 for eid in PAPER_IDS},
    },
    "serve-mixed": {
        "batch": (),
        "reads": {eid: 108 if eid == SLOW_READ else 36 for eid in CHEAP_IDS},
    },
}

#: Writes re-run fig10 with a ``message_bytes`` from this pool: distinct
#: multiples of 4 KiB in [64 MiB, 1 GiB), so host work matches fig10's
#: 1 GiB default, which the pool never holds.  Each pass starts from an
#: empty store, so every write misses, executes and stores.  The pool is
#: fixed so that ``expected.json`` can hold every write's result.
WRITE_ARTIFACT = "fig10"
_PAGE = 4096
WRITE_POOL = tuple(
    _PAGE * pages
    for pages in random.Random("perfbench-write-pool").sample(
        range((64 << 20) // _PAGE, (1 << 30) // _PAGE), 64
    )
)


def writes_per_pass(workload: str) -> int:
    """Writes in each pass of ``workload``."""
    return sum(WORKLOADS[workload]["reads"].values()) // READS_PER_WRITE


def requests_for(workload: str, seed: int, index: int) -> list[dict[str, Any]]:
    """The seeded request list of pass ``index`` of a run."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    requests: list[dict[str, Any]] = [
        {"op": "read", "artifact": artifact, "params": {}}
        for artifact, count in WORKLOADS[workload]["reads"].items()
        for _ in range(count)
    ]
    requests += [
        {"op": "write", "artifact": WRITE_ARTIFACT, "params": {"message_bytes": size}}
        for size in rng.sample(WRITE_POOL, writes_per_pass(workload))
    ]
    rng.shuffle(requests)
    return requests


def case_key(artifact: str, params: dict[str, Any]) -> str:
    """Key of a request's expected result in ``expected.json``."""
    return artifact + "".join(f" {k}={v}" for k, v in sorted(params.items()))


def cases() -> dict[str, tuple[str, dict[str, Any]]]:
    """Every request any workload can make: key -> (artifact, params)."""
    targets = [(eid, {}) for eid in PAPER_IDS]
    targets += [(WRITE_ARTIFACT, {"message_bytes": size}) for size in WRITE_POOL]
    return {case_key(a, p): (a, p) for a, p in targets}
