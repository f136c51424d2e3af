"""Unit + property tests for max-min fair allocation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import SimEngine
from repro.sim.fairshare import (
    FairshareSolver,
    FlowSpec,
    allocation_is_feasible,
    max_min_fair_rates,
)
from repro.sim.flow import ChannelTable, FlowNetwork

from .flow_oracle import reference_components, reference_fill


class TestBasicAllocations:
    def test_single_flow_takes_channel(self):
        rates = max_min_fair_rates(
            [FlowSpec("f", ("c",))], {"c": 100.0}
        )
        assert rates["f"] == pytest.approx(100.0)

    def test_equal_split(self):
        flows = [FlowSpec(i, ("c",)) for i in range(4)]
        rates = max_min_fair_rates(flows, {"c": 100.0})
        assert all(r == pytest.approx(25.0) for r in rates.values())

    def test_cap_binds_first(self):
        flows = [FlowSpec("capped", ("c",), cap=10.0), FlowSpec("free", ("c",))]
        rates = max_min_fair_rates(flows, {"c": 100.0})
        assert rates["capped"] == pytest.approx(10.0)
        assert rates["free"] == pytest.approx(90.0)

    def test_cap_only_flow(self):
        rates = max_min_fair_rates([FlowSpec("f", (), cap=42.0)], {})
        assert rates["f"] == pytest.approx(42.0)

    def test_multi_hop_bottleneck(self):
        flows = [FlowSpec("path", ("wide", "narrow"))]
        rates = max_min_fair_rates(flows, {"wide": 100.0, "narrow": 10.0})
        assert rates["path"] == pytest.approx(10.0)

    def test_classic_three_flow_example(self):
        # f1 on A, f2 on A+B, f3 on B; A=10, B=20.
        flows = [
            FlowSpec("f1", ("A",)),
            FlowSpec("f2", ("A", "B")),
            FlowSpec("f3", ("B",)),
        ]
        rates = max_min_fair_rates(flows, {"A": 10.0, "B": 20.0})
        assert rates["f1"] == pytest.approx(5.0)
        assert rates["f2"] == pytest.approx(5.0)
        assert rates["f3"] == pytest.approx(15.0)

    def test_empty(self):
        assert max_min_fair_rates([], {}) == {}


class TestValidation:
    def test_duplicate_ids(self):
        with pytest.raises(SimulationError):
            max_min_fair_rates(
                [FlowSpec("f", ("c",)), FlowSpec("f", ("c",))], {"c": 1.0}
            )

    def test_unknown_channel(self):
        with pytest.raises(SimulationError):
            max_min_fair_rates([FlowSpec("f", ("nope",))], {})

    def test_nonpositive_capacity(self):
        with pytest.raises(SimulationError):
            max_min_fair_rates([FlowSpec("f", ("c",))], {"c": 0.0})

    def test_nonpositive_cap(self):
        with pytest.raises(SimulationError):
            FlowSpec("f", ("c",), cap=0.0)

    def test_unconstrained_flow(self):
        with pytest.raises(SimulationError):
            max_min_fair_rates([FlowSpec("f", ())], {})

    def test_nan_cap_names_the_flow(self):
        with pytest.raises(SimulationError, match="flow 'f' cap must be positive"):
            FlowSpec("f", ("c",), cap=math.nan)

    def test_nan_capacity_names_the_channel(self):
        # Not the misleading "unconstrained flows" error of a NaN share.
        flows = [FlowSpec("f", ("c",)), FlowSpec("g", ("c",))]
        with pytest.raises(SimulationError, match="channel 'c' capacity"):
            max_min_fair_rates(flows, {"c": math.nan})

    def test_solver_rejects_nan_capacity(self):
        solver = FairshareSolver()
        with pytest.raises(SimulationError, match="channel 'c' capacity"):
            solver.add_channel("c", math.nan)
        solver.add_channel("c", 100.0)
        solver.add_flow(FlowSpec("f", ("c",)))
        with pytest.raises(SimulationError, match="channel 'c' capacity"):
            solver.set_capacity("c", math.nan)
        assert solver.capacities() == {"c": 100.0}
        assert solver.rate("f") == 100.0

    def test_channel_rejects_nan_capacity(self):
        # A node's channels register through its compiled table.
        with pytest.raises(SimulationError, match="channel 'c' capacity"):
            ChannelTable.build([("c", math.nan)])
        net = FlowNetwork(SimEngine(), channels=ChannelTable.build([("c", 100.0)]))
        with pytest.raises(SimulationError, match="channel 'c' capacity"):
            net.set_capacity("c", math.nan)
        assert net.capacity("c") == 100.0

    def test_network_rejects_nan_capacity(self):
        net = FlowNetwork(SimEngine())
        with pytest.raises(SimulationError, match="channel 'x' capacity"):
            net.add_channel("x", math.nan)
        net.add_channel("c", 100.0)
        with pytest.raises(SimulationError, match="channel 'c' capacity"):
            net.set_capacity("c", math.nan)
        assert net.capacities() == {"c": 100.0}


class TestUnboundedChannel:
    """An infinite-capacity channel never saturates (``inf <= inf``)."""

    CAPACITIES = {"unbounded": math.inf, "c1": 100.0}

    def test_batch_blames_the_finite_channel(self):
        flows = [
            FlowSpec("A", ("unbounded", "c1")),
            FlowSpec("B", ("c1",), cap=10.0),
        ]
        bottlenecks = {}
        rates = max_min_fair_rates(flows, self.CAPACITIES, bottlenecks)
        assert rates == {"A": 90.0, "B": 10.0}
        assert bottlenecks == {"A": "c1", "B": None}

    def test_lone_flow_blames_the_finite_channel(self):
        bottlenecks = {}
        flows = [FlowSpec("A", ("unbounded", "c1"))]
        assert max_min_fair_rates(flows, self.CAPACITIES, bottlenecks) == {
            "A": 100.0
        }
        assert bottlenecks == {"A": "c1"}

    def test_solver_churn_matches_reference(self):
        # Nine flows keep the component above the trace threshold, so
        # churn goes through dirty-set replay and its saturation checks.
        capacities = {"unbounded": math.inf, "a": 100.0, "b": 60.0}
        solver = FairshareSolver(capacities, track_bottlenecks=True)
        specs = [
            FlowSpec(i, ("unbounded", "a"), cap=[math.inf, 5.0, 20.0][i % 3])
            for i in range(9)
        ]
        ops = [("add", spec) for spec in specs]
        ops += [
            ("add", FlowSpec("wide", ("unbounded", "b"))),
            ("add", FlowSpec("capped", ("unbounded",), cap=7.0)),
            ("remove", 1),
            ("remove", "wide"),
            ("set_capacity", "a", 150.0),
            ("remove", 0),
        ]
        for op in ops:
            if op[0] == "add":
                solver.add_flow(op[1])
            elif op[0] == "remove":
                solver.remove_flow(op[1])
            else:
                solver.set_capacity(op[1], op[2])
            expected_b = {}
            expected = {}
            for component in reference_components(solver.flows()):
                expected.update(
                    reference_fill(component, solver.capacities(), expected_b)
                )
            assert solver.rates() == expected
            assert solver.bottlenecks() == expected_b
            assert "unbounded" not in solver.bottlenecks().values()
        # Churn on the unbounded channel replays: it must not count as a
        # saturation the recorded solve never saw.
        assert solver.stats.dirty_relevels > 0

    def test_completion_time_through_the_network(self):
        # B (cap 10) and A share c1: A gets the other 90, not 10.  B
        # finishes at 5 s; A then has 450 bytes left at 100 → 9.5 s.
        engine = SimEngine()
        net = FlowNetwork(engine)
        net.add_channel("unbounded", math.inf)
        net.add_channel("c1", 100.0)
        a = net.transfer(["unbounded", "c1"], 900.0)
        b = net.transfer(["c1"], 50.0, cap=10.0)
        engine.run()
        assert b.finish_time == 5.0
        assert a.finish_time == 9.5


@st.composite
def fairshare_problems(draw):
    num_channels = draw(st.integers(1, 5))
    capacities = {
        f"c{i}": draw(st.floats(1.0, 1000.0)) for i in range(num_channels)
    }
    num_flows = draw(st.integers(1, 8))
    flows = []
    for i in range(num_flows):
        channels = tuple(
            draw(
                st.lists(
                    st.sampled_from(sorted(capacities)),
                    min_size=1,
                    max_size=num_channels,
                    unique=True,
                )
            )
        )
        cap = draw(st.one_of(st.just(math.inf), st.floats(0.5, 500.0)))
        flows.append(FlowSpec(i, channels, cap))
    return flows, capacities


@settings(max_examples=150, deadline=None)
@given(fairshare_problems())
def test_allocation_properties(problem):
    """The three max-min invariants, checked on random problems."""
    flows, capacities = problem
    rates = max_min_fair_rates(flows, capacities)

    # 1. Feasibility: no channel over capacity, no cap exceeded.
    assert allocation_is_feasible(flows, capacities, rates)

    # 2. Positivity: nobody starves.
    assert all(rate > 0 for rate in rates.values())

    # 3. Work conservation: every flow is blocked by a tight channel
    #    or its own cap (cannot be raised unilaterally).
    load = {channel: 0.0 for channel in capacities}
    for flow in flows:
        for channel in flow.channels:
            load[channel] += rates[flow.flow_id]
    for flow in flows:
        at_cap = (
            flow.cap != math.inf
            and rates[flow.flow_id] >= flow.cap * (1 - 1e-6)
        )
        on_tight_channel = any(
            load[channel] >= capacities[channel] * (1 - 1e-6)
            for channel in flow.channels
        )
        assert at_cap or on_tight_channel


@settings(max_examples=50, deadline=None)
@given(fairshare_problems())
def test_allocation_deterministic(problem):
    flows, capacities = problem
    first = max_min_fair_rates(flows, capacities)
    second = max_min_fair_rates(list(flows), dict(capacities))
    assert first == second
