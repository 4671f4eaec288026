"""Outside-in per-layer tracing: wraps the public boundaries of each layer.

Nothing inside ``src/`` is instrumented.  :class:`LayerTracer` replaces
selected functions and methods of the already-imported ``repro`` modules
with thin wrappers that count calls and, for boundaries called well under
about 10^5 times per run, time them.  Every module that bound a wrapped
function by name (``from ..topology.routing import
bandwidth_maximizing_path``) gets the wrapper too, because that is the
name its callers resolve.

Self time: each timed call pushes a child-time accumulator; on return its
inclusive time minus the time of timed calls nested inside it is charged
to its own bucket, and its inclusive time is charged to its parent as
child time.  Count-only wrappers (the page table, ~10^6 calls) add no
timing, so their time stays in the enclosing timed boundary
(``SimEngine.run``).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable

#: Counter names and the obs-layer counters they are read from (traced
#: runs build every ``SweepRunner`` with ``capture_metrics=True``).
OBS_COUNTERS = {
    "sim.events": "engine/events_delivered",
    "sim.rate_changes": "network/rate_changes",
    "memory.faults": "memory/faults",
    "memory.pages_migrated": "memory/pages_migrated",
}


class LayerTracer:
    """Counts and self times per layer boundary, for one process."""

    def __init__(self) -> None:
        self._counts: dict[str, list[int]] = {}
        self._self_ns: dict[str, int] = {}
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self.runners: list[Any] = []

    # -- wrappers -------------------------------------------------------

    def _cell(self, name: str) -> list[int]:
        return self._counts.setdefault(name, [0])

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def counted(self, count: str, fn: Callable) -> Callable:
        """Wrapper that only counts calls (hot boundaries, generators)."""
        cell = self._cell(count)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, count: str, bucket: str, fn: Callable) -> Callable:
        """Wrapper that counts calls into ``count`` and self time into ``bucket``."""
        cell = self._cell(count)
        self._self_ns.setdefault(bucket, 0)
        self_ns = self._self_ns
        stack_of = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cell[0] += 1
            stack = stack_of()
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[bucket] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return wrapper

    # -- patching -------------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def wrap_method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.name`` with ``make(original)``."""
        self._set(cls, name, make(cls.__dict__[name]))

    def wrap_function(self, module: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a module function wherever ``repro`` code resolves it.

        That is every module attribute bound to it and every default
        argument holding it (``ring_builder=build_greedy_ring``).
        """
        original = getattr(module, name)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                functions = vars(value).values() if isinstance(value, type) else (value,)
                for fn in functions:
                    defaults = getattr(fn, "__defaults__", None)
                    if isinstance(defaults, tuple) and any(d is original for d in defaults):
                        self._set(fn, "__defaults__", tuple(
                            wrapper if d is original else d for d in defaults
                        ))
                    kwdefaults = getattr(fn, "__kwdefaults__", None)
                    if isinstance(kwdefaults, dict) and any(
                        d is original for d in kwdefaults.values()
                    ):
                        self._set(fn, "__kwdefaults__", {
                            k: wrapper if d is original else d for k, d in kwdefaults.items()
                        })

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def install(self) -> "LayerTracer":
        """Wrap every layer boundary of the table in ``RATIONALE.md``."""
        import repro.figures as figures
        import repro.rccl.ring as ring
        import repro.topology.routing as routing
        from repro.hardware import node as hw_node
        from repro.memory.pages import PageTable
        from repro.runner import ResultCache, SweepRunner
        from repro.runner.points import SimPoint
        from repro.sim.engine import SimEngine
        from repro.sim.fairshare import FairshareSolver
        from repro.sim.flow import FlowNetwork
        from repro.topology.node import NodeTopology

        timed, counted = self.timed, self.counted

        def timed_as(count: str, bucket: str | None = None) -> Callable[[Callable], Callable]:
            return lambda fn: timed(count, bucket or count, fn)

        def counted_as(count: str) -> Callable[[Callable], Callable]:
            return lambda fn: counted(count, fn)

        # figures
        self.wrap_function(figures, "sweep_points", timed_as("figures.decompose"))
        self.wrap_function(figures, "merge_outputs", timed_as("figures.merge"))
        self.wrap_function(figures, "report", timed_as("figures.report"))
        # runner
        self.wrap_method(ResultCache, "key_for", timed_as("runner.key"))
        self.wrap_method(ResultCache, "load", timed_as("runner.load"))
        self.wrap_method(ResultCache, "store", timed_as("runner.store"))
        self.wrap_method(SimPoint, "execute", counted_as("runner.points_executed"))
        tracer = self

        def register(init: Callable) -> Callable:
            @functools.wraps(init)
            def wrapper(runner: Any, *args: Any, **kwargs: Any) -> None:
                kwargs["capture_metrics"] = True
                init(runner, *args, **kwargs)
                tracer.runners.append(runner)

            return wrapper

        self.wrap_method(SweepRunner, "__init__", register)
        # topology
        self.wrap_method(NodeTopology, "fingerprint", timed_as("topology.fingerprint"))
        self.wrap_method(hw_node.HardwareNode, "route", timed_as("topology.route"))
        # Route-cache misses: the node module's own binding only.
        self._set(
            hw_node, "route_between",
            counted("topology.route_misses", hw_node.route_between),
        )
        for name in ("bandwidth_maximizing_path", "shortest_path"):
            self.wrap_function(
                routing, name, timed_as("topology.paths_enumerated", "topology.route")
            )
        # memory (10^6 calls per run: count only)
        for name in ("page_location", "page_bytes"):
            self.wrap_method(PageTable, name, counted_as("memory.page_queries"))
        for name in ("migrate", "migrate_range"):
            self.wrap_method(PageTable, name, counted_as("memory.page_migrations"))
        # sim
        self.wrap_method(SimEngine, "run", timed_as("sim.engine"))
        self.wrap_method(FlowNetwork, "transfer", counted_as("sim.transfers"))
        for name in ("add_flow", "remove_flow", "set_capacity"):
            self.wrap_method(FairshareSolver, name, timed_as("sim.fairshare"))
        # rccl
        for name in ("build_greedy_ring", "build_optimal_ring"):
            self.wrap_function(ring, name, timed_as("rccl.ring_build"))
        return self

    # -- results --------------------------------------------------------

    def count(self, name: str) -> int:
        """Calls counted under ``name`` so far (0 if never wrapped)."""
        return self._counts.get(name, [0])[0]

    def self_ms(self, bucket: str) -> float:
        """Self time charged to ``bucket``, in milliseconds."""
        return self._self_ns.get(bucket, 0) / 1e6

    def obs_counters(self) -> dict[str, int]:
        """Obs-layer counters summed over every runner built while traced."""
        totals = dict.fromkeys(OBS_COUNTERS, 0)
        for runner in self.runners:
            counters = (runner.stats.metrics or {}).get("counters", {})
            for name, source in OBS_COUNTERS.items():
                totals[name] += int(counters.get(source, 0))
        return totals

    def cache_hit_ratio(self) -> float:
        """Result-store hits over probes, across every traced runner."""
        hits = sum(r.stats.cache_hits for r in self.runners)
        probes = hits + sum(r.stats.cache_misses for r in self.runners)
        return hits / probes if probes else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of the in-process layers."""
        count = self.count
        route_calls = count("topology.route")
        route_misses = count("topology.route_misses")
        out: dict[str, float] = {
            "figures.decompose_ms": self.self_ms("figures.decompose"),
            "figures.merge_ms": self.self_ms("figures.merge"),
            "figures.report_ms": self.self_ms("figures.report"),
            "runner.key_calls": count("runner.key"),
            "runner.key_ms": self.self_ms("runner.key"),
            "runner.load_ms": self.self_ms("runner.load"),
            "runner.store_calls": count("runner.store"),
            "runner.store_ms": self.self_ms("runner.store"),
            "runner.hit_ratio": self.cache_hit_ratio(),
            "runner.points_executed": count("runner.points_executed"),
            "topology.fingerprint_calls": count("topology.fingerprint"),
            "topology.fingerprint_ms": self.self_ms("topology.fingerprint"),
            "topology.route_calls": route_calls,
            "topology.paths_enumerated": count("topology.paths_enumerated"),
            "topology.route_ms": self.self_ms("topology.route"),
            "topology.route_hit_ratio": (
                1.0 - route_misses / route_calls if route_calls else 0.0
            ),
            "memory.page_queries": count("memory.page_queries"),
            "memory.page_migrations": count("memory.page_migrations"),
            "sim.engine_runs": count("sim.engine"),
            "sim.engine_self_ms": self.self_ms("sim.engine"),
            "sim.transfers": count("sim.transfers"),
            "sim.fairshare_ops": count("sim.fairshare"),
            "sim.fairshare_ms": self.self_ms("sim.fairshare"),
            "rccl.ring_builds": count("rccl.ring_build"),
            "rccl.ring_build_ms": self.self_ms("rccl.ring_build"),
        }
        out.update(self.obs_counters())
        return out
