"""Bit-identity of :class:`FlowNetwork` against the reference oracle.

The network's NumPy slot-array integration, dirty-set solver replay and
epoch-deferred re-levels must be *exactly* equivalent to the oracle in
``flow_oracle.py`` — per-flow scalar integration with a batch re-solve
on every event — on every observable: completion times, rates and span
blame ledgers, down to the last float bit.  Equality below is ``==`` on
floats throughout; ``pytest.approx`` would hide exactly the bugs these
tests exist for.

The physical invariants (feasible allocations, a monotone clock, byte
conservation) are checked after every re-level on the same workloads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import SimEngine
from repro.sim.fairshare import FlowSpec, allocation_is_feasible
from repro.sim.flow import FlowNetwork

from .flow_oracle import OracleFlowNetwork, run_workload


@st.composite
def workloads(draw):
    n_channels = draw(st.integers(min_value=1, max_value=4))
    capacities = draw(
        st.lists(
            st.sampled_from([50.0, 100.0, 175.0, 275.0]),
            min_size=n_channels,
            max_size=n_channels,
        )
    )
    n_flows = draw(st.integers(min_value=1, max_value=10))
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
        size = draw(st.sampled_from([1.0, 7.5, 64.0, 100.0, 333.0, 1000.0]))
        delay = draw(st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]))
        cap = draw(st.sampled_from([float("inf"), 30.0, 80.0, 120.0]))
        flow_specs.append((channels, size, delay, cap))
    changes = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.3, 0.6, 1.2, 2.4]),
                st.integers(min_value=0, max_value=n_channels - 1),
                st.sampled_from([25.0, 60.0, 150.0]),
            ),
            max_size=3,
        )
    )
    return capacities, flow_specs, changes


class TestBackendsBitIdentical:
    @settings(max_examples=40, deadline=None)
    @given(workload=workloads())
    def test_random_workloads_agree_exactly(self, workload):
        capacities, flow_specs, changes = workload
        assert run_workload(
            FlowNetwork, capacities, flow_specs, changes
        ) == run_workload(OracleFlowNetwork, capacities, flow_specs, changes)

    def test_same_time_completions_keep_flow_id_order(self):
        # Equal flows on one channel finish at the same instant;
        # completion callbacks must fire in flow-id order (the
        # vectorized path detects them as one batch).
        workload = ([100.0], [([0], 50.0, 0.0, float("inf"))] * 3)
        oracle = run_workload(OracleFlowNetwork, *workload)
        ids = [fid for fid, _ in oracle["completions"]]
        assert ids == sorted(ids)
        assert run_workload(FlowNetwork, *workload) == oracle


class TestPhysicalInvariants:
    """Capacity, clock and byte conservation, checked after every re-level."""

    @settings(max_examples=40, deadline=None)
    @given(workload=workloads())
    def test_every_relevel_is_feasible_and_bytes_are_conserved(self, workload):
        capacities, flow_specs, changes = workload
        engine = SimEngine()
        metrics = MetricsRegistry()
        net = FlowNetwork(engine, metrics=metrics)
        resolve = net._resolve_and_schedule
        clock = [0.0]

        def checked_resolve(*args, **kwargs):
            resolve(*args, **kwargs)
            live = list(net._active.values())
            specs = [FlowSpec(f.flow_id, f.channels, f.cap) for f in live]
            rates = {f.flow_id: f.rate for f in live}
            assert allocation_is_feasible(specs, net.capacities(), rates)
            assert engine.now >= clock[0], "engine clock ran backwards"
            clock[0] = engine.now

        net._resolve_and_schedule = checked_resolve
        for index, capacity in enumerate(capacities):
            net.add_channel(f"ch{index}", capacity)
        flows = []

        def start(channels, size, delay, cap):
            if delay:
                yield engine.timeout(delay)
            flow = net.transfer([f"ch{c}" for c in channels], size, cap=cap)
            flows.append(flow)
            yield flow.done

        for spec in flow_specs:
            engine.process(start(*spec))
        for at, index, capacity in changes:
            engine.schedule(at, net.set_capacity, f"ch{index}", capacity)
        engine.run()

        assert all(flow.completed for flow in flows)
        moved = sum(usage.bytes for usage in metrics.channels().values())
        expected = sum(flow.size * len(flow.channels) for flow in flows)
        assert moved == pytest.approx(expected, rel=1e-9)
