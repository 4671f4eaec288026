"""Bit-identity of dirty-set trace replay against its oracles.

The production flow path re-levels with a :class:`FairshareSolver`
that replays solve traces (``dirty=True``).  It must be *exactly*
equivalent to the non-replay solver (``dirty=False``, a full
per-component re-solve per op) and to the batch
:func:`max_min_fair_rates` oracle — same rates, same bottleneck
attribution, same completion timestamps, down to the last float bit.
Equality below is ``==`` on floats throughout; ``pytest.approx`` would
hide exactly the bugs these tests exist for.

Two layers:

- solver level: random add/remove/``set_capacity`` sequences against
  a :class:`FairshareSolver` with and without trace replay,
  cross-checked against the batch oracle after every op;
- network level: full :class:`FlowNetwork` workloads (including
  same-timestamp bursts) on the production solver and on the
  non-replay solver, compared on the complete observable trace, and a
  same-epoch burst that finishes in one completion batch.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import SimEngine
from repro.sim.fairshare import FairshareSolver, FlowSpec, max_min_fair_rates
from repro.sim.flow import FlowNetwork

#: Channel universe for the solver-level fuzz: a clique-ish core the
#: dirty threshold actually triggers on, plus private leaf channels.
CHANNELS = {
    "core0": 100.0,
    "core1": 150.0,
    "core2": 75.0,
    "leaf0": 50.0,
    "leaf1": 36.0,
    "leaf2": 200.0,
    "leaf3": 25.0,
}


@st.composite
def op_sequences(draw):
    """A deterministic add/remove/set_capacity script."""
    n_ops = draw(st.integers(min_value=1, max_value=60))
    ops = []
    live = 0
    names = sorted(CHANNELS)
    for index in range(n_ops):
        kind = draw(
            st.sampled_from(
                ["add", "add", "add", "remove", "set_capacity"]
                if live
                else ["add"]
            )
        )
        if kind == "add":
            channels = tuple(
                draw(
                    st.lists(
                        st.sampled_from(names),
                        min_size=1,
                        max_size=4,
                        unique=True,
                    )
                )
            )
            cap = draw(st.sampled_from([float("inf"), 20.0, 55.0, 80.0]))
            ops.append(("add", index, channels, cap))
            live += 1
        elif kind == "remove":
            ops.append(("remove", draw(st.integers(0, index - 1))))
            live -= 1
        else:
            ops.append(
                (
                    "set_capacity",
                    draw(st.sampled_from(names)),
                    draw(st.sampled_from([10.0, 40.0, 90.0, 160.0])),
                )
            )
    return ops


def apply_ops(solver, ops):
    """Run a script; returns ``[(rates, bottlenecks)]`` after each op."""
    states = []
    added = set()
    for op in ops:
        if op[0] == "add":
            _, flow_id, channels, cap = op
            solver.add_flow(FlowSpec(flow_id, channels, cap=cap))
            added.add(flow_id)
        elif op[0] == "remove":
            flow_id = op[1]
            if flow_id in added and flow_id in solver:
                solver.remove_flow(flow_id)
        else:
            solver.set_capacity(op[1], op[2])
        states.append((dict(solver.rates()), dict(solver.bottlenecks())))
    return states


def fresh_solver(dirty):
    solver = FairshareSolver(track_bottlenecks=True, dirty=dirty)
    for channel, capacity in sorted(CHANNELS.items()):
        solver.add_channel(channel, capacity)
    return solver


class TestDirtyReplayBitIdentical:
    @settings(max_examples=60, deadline=None)
    @given(ops=op_sequences())
    def test_dirty_equals_full_on_random_scripts(self, ops):
        dirty_states = apply_ops(fresh_solver(dirty=True), ops)
        full_states = apply_ops(fresh_solver(dirty=False), ops)
        assert dirty_states == full_states

    @settings(max_examples=25, deadline=None)
    @given(ops=op_sequences())
    def test_dirty_matches_batch_oracle_at_end(self, ops):
        solver = fresh_solver(dirty=True)
        apply_ops(solver, ops)
        flows = solver.flows()
        if not flows:
            return
        capacities = solver.capacities()
        used = {c for spec in flows for c in spec.channels}
        oracle = max_min_fair_rates(
            flows, {c: capacities[c] for c in used}
        )
        assert solver.rates() == oracle

    def test_churn_on_light_channel_replays_not_resolves(self):
        # The headline regime: a congested core freezes everything in
        # round 0, then steady churn on a lightly loaded leaf channel
        # must be absorbed by trace replay, not a full component
        # re-solve.  The buildup itself diverges at round 0 every time
        # (each arrival lands on the binding channel), so it drives the
        # component into replay backoff first — a few churn cycles
        # reach the probe trace, the probe's replay succeeds, and from
        # then on every churn op replays.
        solver = fresh_solver(dirty=True)
        for i in range(16):
            solver.add_flow(FlowSpec(("bg", i), ("core0", "leaf2")))
        for i in range(8):  # warm-up: rides out backoff to the probe
            solver.add_flow(FlowSpec(("warm", i), ("leaf2",), cap=20.0))
            solver.remove_flow(("warm", i))
        before = solver.stats.dirty_relevels
        solver.add_flow(FlowSpec("churn", ("leaf2",), cap=20.0))
        solver.remove_flow("churn")
        assert solver.stats.dirty_relevels >= before + 2

    def test_round0_churn_backs_off_trace_recording(self):
        # The anti-regime: every arrival changes the round-0 binding
        # constraint, so no replay can ever succeed — after the backoff
        # threshold the solver must stop paying for trace recording
        # (rates are differential-tested identical either way).
        solver = fresh_solver(dirty=True)
        for i in range(24):
            solver.add_flow(FlowSpec(("bg", i), ("core0",)))
        assert solver.stats.trace_skips > 0
        assert solver.stats.dirty_relevels == 0


def run_network_workload(
    capacities, flow_specs, capacity_changes=(), *, replay=True, metrics=None
):
    """One FlowNetwork workload; returns the full observable trace.

    ``flow_specs`` is a list of ``(channel_indices, size, delay, cap)``,
    ``capacity_changes`` of ``(at, channel_index, capacity)``.  Delays
    repeat across flows on purpose: same-timestamp bursts make a
    completion and an arrival share one engine epoch.  ``replay=False``
    swaps in the non-replay solver before any channel exists.
    ``metrics`` is handed to the network.
    """
    engine = SimEngine()
    net = FlowNetwork(engine, metrics=metrics)
    if not replay:
        net._solver = FairshareSolver(dirty=False)
    assert net.solver.dirty_releveling == replay
    for index, capacity in enumerate(capacities):
        net.add_channel(f"ch{index}", capacity)
    completions = []
    flows = []

    def start(spec):
        channels, size, delay, cap = spec

        def proc():
            if delay:
                yield engine.timeout(delay)
            flow = net.transfer([f"ch{c}" for c in channels], size, cap=cap)
            flows.append(flow)
            yield flow.done
            completions.append((flow.flow_id, engine.now))

        engine.process(proc())

    for spec in flow_specs:
        start(spec)
    for at, index, capacity in capacity_changes:
        engine.schedule(at, net.set_capacity, f"ch{index}", capacity)
    engine.run()
    return {
        "completions": completions,
        "elapsed": [flow.elapsed for flow in flows],
        "rates": [flow.achieved_rate for flow in flows],
        "final_time": engine.now,
    }


@st.composite
def network_workloads(draw):
    n_channels = draw(st.integers(min_value=1, max_value=4))
    capacities = draw(
        st.lists(
            st.sampled_from([50.0, 100.0, 175.0, 275.0]),
            min_size=n_channels,
            max_size=n_channels,
        )
    )
    n_flows = draw(st.integers(min_value=1, max_value=12))
    flow_specs = []
    for _ in range(n_flows):
        channels = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_channels - 1),
                min_size=1,
                max_size=n_channels,
                unique=True,
            )
        )
        size = draw(st.sampled_from([1.0, 7.5, 64.0, 100.0, 333.0]))
        # Few distinct delays → many same-timestamp arrivals.
        delay = draw(st.sampled_from([0.0, 0.25, 1.0]))
        cap = draw(st.sampled_from([float("inf"), 30.0, 80.0]))
        flow_specs.append((channels, size, delay, cap))
    changes = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.25, 1.0, 2.4]),
                st.integers(min_value=0, max_value=n_channels - 1),
                st.sampled_from([25.0, 60.0, 150.0]),
            ),
            max_size=3,
        )
    )
    return capacities, flow_specs, changes


INF = float("inf")

#: Flow 1 finishes exactly when flow 2 arrives.  Deferring the
#: re-level to the end of the engine epoch once completed flow 1 at
#: ``0.25`` here, one ulp early; one re-level per op gives the value
#: below on every solver.
SAME_EPOCH_COUNTEREXAMPLE = (
    [175.0, 50.0],
    [([0], 1.0, 0.0, INF), ([0], 7.5, 0.0, 30.0), ([0], 1.0, 0.25, INF)],
    [],
)


class TestNetworkBitIdentical:
    @settings(max_examples=40, deadline=None)
    @given(workload=network_workloads())
    @example(workload=SAME_EPOCH_COUNTEREXAMPLE)
    def test_replay_equals_non_replay(self, workload):
        capacities, flow_specs, changes = workload
        assert run_network_workload(
            capacities, flow_specs, changes
        ) == run_network_workload(capacities, flow_specs, changes, replay=False)

    def test_counterexample_completion_time(self):
        trace = run_network_workload(*SAME_EPOCH_COUNTEREXAMPLE)
        assert dict(trace["completions"])[1] == 0.25000000000000006


class TestEpochDeferredBitIdentical:
    """Same-epoch bursts, the case epoch deferral used to coalesce.

    Re-leveling now runs once per op, so a burst costs one re-level per
    arrival; flows finishing at one instant still leave in a single
    completion batch.
    """

    def test_same_epoch_burst_single_solve(self):
        # All transfers land in one epoch and finish together; the
        # completions are one re-level, and done callbacks fire in
        # flow-id (creation) order on both solvers.
        specs = [([0], 50.0, 0.0, INF)] * 4
        metrics = MetricsRegistry()
        trace = run_network_workload([100.0], specs, metrics=metrics)
        ids = [fid for fid, _ in trace["completions"]]
        assert ids == sorted(ids)
        assert len({at for _, at in trace["completions"]}) == 1
        assert metrics.counter("network/rate_changes").value == len(specs) + 1
        assert trace == run_network_workload([100.0], specs, replay=False)
