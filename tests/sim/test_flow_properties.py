"""Property tests for the fluid-flow network.

Random flow populations over random channel sets must conserve bytes,
complete every flow, respect capacities at all times, and be
deterministic.  These invariants are what make the benchmark numbers
trustworthy, so they get the heaviest hypothesis coverage.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimEngine
from repro.sim.flow import FlowNetwork


@st.composite
def flow_scenarios(draw):
    num_channels = draw(st.integers(1, 4))
    capacities = [draw(st.floats(10.0, 1000.0)) for _ in range(num_channels)]
    num_flows = draw(st.integers(1, 10))
    flows = []
    for _ in range(num_flows):
        channels = draw(
            st.lists(
                st.integers(0, num_channels - 1),
                min_size=1,
                max_size=num_channels,
                unique=True,
            )
        )
        size = draw(st.floats(1.0, 10_000.0))
        cap = draw(st.one_of(st.just(math.inf), st.floats(1.0, 500.0)))
        start_delay = draw(st.floats(0.0, 5.0))
        flows.append((channels, size, cap, start_delay))
    return capacities, flows


def run_scenario(capacities, flows):
    engine = SimEngine()
    network = FlowNetwork(engine)
    for index, capacity in enumerate(capacities):
        network.add_channel(index, capacity)
    live = [None] * len(flows)

    def starter(index, channels, size, cap, delay):
        yield engine.timeout(delay)
        live[index] = network.transfer(channels, size, cap=cap)

    for index, spec in enumerate(flows):
        engine.process(starter(index, *spec))
    engine.run()
    return live


@settings(max_examples=80, deadline=None)
@given(flow_scenarios())
def test_all_flows_complete_and_conserve_bytes(scenario):
    capacities, flows = scenario
    live = run_scenario(capacities, flows)
    assert len(live) == len(flows)
    for flow, (channels, size, cap, delay) in zip(live, flows):
        assert flow.completed
        assert flow.remaining == 0.0
        # achieved_rate * elapsed reconstructs the size exactly.
        if flow.elapsed and flow.elapsed > 0:
            assert flow.achieved_rate * flow.elapsed == pytest.approx(
                size, rel=1e-6
            )
        # No flow ever beat its own cap on average.
        if cap != math.inf and flow.elapsed and flow.elapsed > 0:
            assert flow.achieved_rate <= cap * (1 + 1e-6)


@settings(max_examples=40, deadline=None)
@given(flow_scenarios())
def test_aggregate_channel_throughput_bounded(scenario):
    """Total bytes through a channel ≤ capacity × makespan."""
    capacities, flows = scenario
    live = run_scenario(capacities, flows)
    makespan = max(flow.finish_time for flow in live)
    if makespan == 0:
        return
    for index, capacity in enumerate(capacities):
        total = sum(
            flow.size for flow in live if index in flow.channels
        )
        first_start = min(
            (flow.start_time for flow in live if index in flow.channels),
            default=0.0,
        )
        window = makespan - first_start
        if window > 0:
            assert total <= capacity * window * (1 + 1e-6)


@settings(max_examples=30, deadline=None)
@given(flow_scenarios())
def test_determinism(scenario):
    capacities, flows = scenario
    first = [f.finish_time for f in run_scenario(capacities, flows)]
    second = [f.finish_time for f in run_scenario(capacities, flows)]
    assert first == second


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(1.0, 1000.0), min_size=2, max_size=6),
)
def test_single_channel_fifo_fairness(sizes):
    """Equal-start flows on one channel finish in size order."""
    engine = SimEngine()
    network = FlowNetwork(engine)
    network.add_channel("c", 100.0)
    flows = [network.transfer(["c"], s) for s in sizes]
    engine.run()
    finish_by_size = sorted(zip(sizes, [f.finish_time for f in flows]))
    finishes = [t for _s, t in finish_by_size]
    assert finishes == sorted(finishes)
