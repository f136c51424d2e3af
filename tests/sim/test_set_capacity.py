"""Dynamic capacity changes: differential tests and failure semantics.

The tentpole property: driving a :class:`FairshareSolver` (or a live
:class:`FlowNetwork`) through arbitrary mid-flight ``set_capacity``
churn must produce **bit-identical** rates to tearing every flow down
and re-adding it under the new capacities.  Zero capacity models a
failed link: crossing flows fail with :class:`LinkDownError`, survivors
re-level.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LinkDownError, SimulationError
from repro.sim.engine import SimEngine
from repro.sim.fairshare import (
    FairshareSolver,
    FlowSpec,
    allocation_is_feasible,
    max_min_fair_rates,
)
from repro.sim.flow import FlowNetwork

CHANNELS = [f"ch{i}" for i in range(8)]
BASE_CAPACITIES = {
    channel: capacity
    for channel, capacity in zip(
        CHANNELS, [1.0, 2.0, 0.5, 4.0, 1.5, 3.0, 0.25, 8.0]
    )
}


def _fresh_solver() -> FairshareSolver:
    solver = FairshareSolver()
    for channel, capacity in BASE_CAPACITIES.items():
        solver.add_channel(channel, capacity)
    return solver


@st.composite
def churn_with_capacity_changes(draw):
    """add/remove/set_capacity op sequences over the fixed channel set."""
    num_ops = draw(st.integers(min_value=1, max_value=50))
    ops = []
    live = 0
    for _ in range(num_ops):
        kind = draw(st.integers(0, 2))
        if kind == 0 and live > 0:
            ops.append(("remove", draw(st.integers(0, live - 1))))
            live -= 1
        elif kind == 1:
            channel = draw(st.sampled_from(CHANNELS))
            factor = draw(st.floats(min_value=0.05, max_value=2.0))
            ops.append(("set_capacity", channel, factor))
        else:
            channels = tuple(
                sorted(
                    draw(
                        st.sets(
                            st.sampled_from(CHANNELS), min_size=1, max_size=3
                        )
                    )
                )
            )
            cap = draw(
                st.one_of(
                    st.just(math.inf),
                    st.floats(min_value=0.05, max_value=10.0),
                )
            )
            ops.append(("add", channels, cap))
            live += 1
    return ops


@settings(max_examples=60, deadline=None)
@given(churn_with_capacity_changes())
def test_set_capacity_bitwise_identical_to_readd_all(ops):
    """After every op the incremental solver equals a from-scratch batch
    solve of the surviving flows under the current capacities — the
    remove-all/re-add-all reference."""
    solver = _fresh_solver()
    capacities = dict(BASE_CAPACITIES)
    live: list[FlowSpec] = []
    next_id = 0
    for op in ops:
        if op[0] == "add":
            _, channels, cap = op
            spec = FlowSpec(next_id, channels, cap)
            next_id += 1
            live.append(spec)
            solver.add_flow(spec)
        elif op[0] == "remove":
            victim = live.pop(op[1])
            solver.remove_flow(victim.flow_id)
        else:
            _, channel, factor = op
            capacities[channel] = BASE_CAPACITIES[channel] * factor
            solver.set_capacity(channel, capacities[channel])

        batch = max_min_fair_rates(live, capacities)
        incremental = solver.rates()
        assert incremental == batch  # bitwise: no tolerance

        if live:
            assert allocation_is_feasible(live, capacities, incremental)


class TestNetworkSetCapacity:
    def _network(self):
        engine = SimEngine()
        network = FlowNetwork(engine)
        network.add_channel("a", 100.0)
        network.add_channel("b", 50.0)
        return engine, network

    def test_midflight_change_relevels_like_restart(self):
        engine, network = self._network()
        flows = [
            network.transfer(["a"], 1000.0),
            network.transfer(["a", "b"], 1000.0),
        ]

        def churn():
            yield engine.timeout(1.0)
            network.set_capacity("a", 60.0)
            batch = max_min_fair_rates(
                [
                    FlowSpec(f.flow_id, f.channels, f.cap)
                    for f in network.active_flows()
                ],
                network.capacities(),
            )
            assert {
                f.flow_id: f.rate for f in network.active_flows()
            } == batch

        engine.process(churn())
        engine.run()
        for flow in flows:
            assert flow.completed
            assert flow.remaining == 0.0

    def test_zero_capacity_fails_crossing_flows_and_speeds_survivors(self):
        engine, network = self._network()
        outcomes = {}
        flows = {}

        def watch(name, flow):
            try:
                yield flow.done
                outcomes[name] = ("done", engine.now)
            except LinkDownError:
                outcomes[name] = ("failed", engine.now)

        def scenario():
            # Both flows share "a"; the victim also crosses "b".
            survivor = network.transfer(["a"], 500.0)
            victim = flows["victim"] = network.transfer(["a", "b"], 500.0)
            engine.process(watch("survivor", survivor))
            engine.process(watch("victim", victim))
            yield engine.timeout(1.0)
            network.set_capacity("b", 0.0)
            # The survivor immediately re-levels to the whole of "a".
            assert survivor.rate == pytest.approx(100.0)

        engine.process(scenario())
        engine.run()
        assert outcomes["victim"] == ("failed", pytest.approx(1.0))
        # A failed flow keeps the bytes it had left when the link died
        # (50 B/s for 1 s) and holds no rate.
        assert flows["victim"].remaining == 450.0
        assert flows["victim"].rate == 0.0
        assert outcomes["survivor"][0] == "done"
        # 50 B/s for 1 s shared, then 100 B/s for the remaining 450 B.
        assert outcomes["survivor"][1] == pytest.approx(1.0 + 450.0 / 100.0)

    def test_transfer_on_dead_channel_rejected_until_restored(self):
        engine, network = self._network()
        network.set_capacity("b", 0.0)
        with pytest.raises(LinkDownError):
            network.transfer(["b"], 10.0)
        network.set_capacity("b", 50.0)
        flow = network.transfer(["b"], 10.0)
        engine.run()
        assert flow.completed

    def test_negative_capacity_rejected(self):
        _, network = self._network()
        with pytest.raises(SimulationError, match="non-negative"):
            network.set_capacity("a", -1.0)

    def test_unknown_channel_rejected(self):
        _, network = self._network()
        with pytest.raises(SimulationError, match="unknown channel"):
            network.set_capacity("nope", 1.0)

    def test_noop_change_is_free(self):
        _, network = self._network()
        before = network.solver.stats.as_dict().get("capacity_changes", 0)
        network.set_capacity("a", 100.0)  # same value
        after = network.solver.stats.as_dict().get("capacity_changes", 0)
        assert after == before
