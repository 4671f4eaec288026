"""Bit-identity of the vectorized flow integrator against its oracle.

The vectorized NumPy integrator is the one flow backend.  Flows that
finish at the same instant are found in one pass over the slot arrays
and leave as one batch; these checks pin that batch against the
closed-form finish time and against ``FlowNetwork(incremental=False)``,
which re-solves from scratch with the batch reference solver.
Equality is ``==`` on floats throughout.
"""

from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import SimEngine
from repro.sim.flow import FlowNetwork


def run_equal_flows(n_flows, size, capacity, *, incremental=True):
    """``n_flows`` equal flows on one channel, all started at t=0.

    Returns ``(completions, metrics)`` with completions as
    ``[(flow_id, finish_time)]`` in done-callback order.
    """
    engine = SimEngine()
    metrics = MetricsRegistry()
    net = FlowNetwork(engine, incremental=incremental, metrics=metrics)
    net.add_channel("ch0", capacity)
    completions = []

    def proc():
        flow = net.transfer(["ch0"], size)
        yield flow.done
        completions.append((flow.flow_id, engine.now))

    for _ in range(n_flows):
        engine.process(proc())
    engine.run()
    return completions, metrics


class TestBackendsBitIdentical:
    def test_same_time_completions_keep_flow_id_order(self):
        # Three equal flows on one channel finish at the same instant;
        # the integrator detects them as one batch, and completion
        # callbacks fire in flow-id order.
        completions, metrics = run_equal_flows(3, 50.0, 100.0)
        finish = 50.0 / (100.0 / 3)
        assert completions == [(0, finish), (1, finish), (2, finish)]
        assert metrics.counter("network/flows_completed").value == 3
        # Three arrivals and one completion batch.
        assert metrics.counter("network/rate_changes").value == 4
        oracle, _ = run_equal_flows(3, 50.0, 100.0, incremental=False)
        assert completions == oracle
