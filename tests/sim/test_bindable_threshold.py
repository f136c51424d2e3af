"""The never-binding channel rule, driven across its threshold.

A channel whose capped members' caps leave more than twice the
saturation slack of its capacity unused can never fill or bind, so the
solver leaves it out of fills and replays.  The solver keeps each
channel's member-cap sum and uncapped count up to date through
``add_flow``, ``remove_flow`` and ``set_capacity``; these tests put cap
sums within a few slacks of capacity, on both sides of the threshold,
and churn them so channels cross between bindable and unbindable.
Rates and freeze reasons must equal the batch solve and the oracle's
``reference_fill`` with ``==``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.fairshare as fairshare
from repro.sim.fairshare import FairshareSolver, FlowSpec, max_min_fair_rates
from repro.sim.flow import FlowNetwork

from .flow_oracle import (
    OracleFlowNetwork,
    reference_components,
    reference_fill,
    run_workload,
)

INF = float("inf")
CAPACITIES = {"a": 100.0, "b": 100.0, "c": 60.0, "d": 150.0}
#: Unused capacity, in saturation slacks (1e-6 of capacity), that a
#: cap sum leaves: the threshold is 2, approached from both sides.
SLACKS = (0.0, 0.5, 1.0, 1.5, 1.9, 2.0, 2.1, 2.5, 3.0, 4.0)


def near_threshold_cap(capacity: float, members: int, slacks: float) -> float:
    """A cap ``members`` of which leave ``slacks`` slacks of ``capacity``."""
    return capacity * (1.0 - slacks * 1e-6) / members


def near_threshold_capacity(capacity: float, slacks: float) -> float:
    return capacity * (1.0 + slacks * 1e-6)


@st.composite
def caps(draw):
    kind = draw(st.sampled_from(["near", "near", "near", "far", "inf"]))
    if kind == "inf":
        return INF
    if kind == "far":
        return draw(st.sampled_from([5.0, 12.5, 40.0]))
    channel = draw(st.sampled_from(sorted(CAPACITIES)))
    return near_threshold_cap(
        CAPACITIES[channel],
        draw(st.integers(min_value=1, max_value=4)),
        draw(st.sampled_from(SLACKS)),
    )


@st.composite
def churn_scripts(draw):
    """add/remove/set_capacity ops whose cap sums hover at the threshold."""
    names = sorted(CAPACITIES)
    ops = []
    live = 0
    for index in range(draw(st.integers(min_value=1, max_value=70))):
        kind = draw(
            st.sampled_from(
                ["add", "add", "add", "remove", "set_capacity"] if live else ["add"]
            )
        )
        if kind == "add":
            # Not unique: a repeated channel counts once in every sum.
            route = tuple(
                draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
            )
            ops.append(("add", index, route, draw(caps())))
            live += 1
        elif kind == "remove":
            ops.append(("remove", draw(st.integers(0, index - 1))))
            live -= 1
        else:
            channel = draw(st.sampled_from(names))
            base = CAPACITIES[channel]
            capacity = draw(
                st.sampled_from(
                    [base / 2, base, 2 * base]
                    + [near_threshold_capacity(base, s) for s in (-2.0, 1.0, 2.5)]
                )
            )
            ops.append(("set_capacity", channel, capacity))
    return ops


def fresh_solver() -> FairshareSolver:
    solver = FairshareSolver(track_bottlenecks=True)
    for channel, capacity in CAPACITIES.items():
        solver.add_channel(channel, capacity)
    return solver


def apply(solver: FairshareSolver, op) -> None:
    if op[0] == "add":
        _, flow_id, route, cap = op
        solver.add_flow(FlowSpec(flow_id, route, cap))
    elif op[0] == "remove":
        if op[1] in solver:
            solver.remove_flow(op[1])
    else:
        solver.set_capacity(op[1], op[2])


def assert_matches_oracles(solver: FairshareSolver) -> None:
    """Cached rates and freeze reasons equal both from-scratch solves."""
    flows = solver.flows()
    capacities = solver.capacities()
    bottlenecks: dict = {}
    assert solver.rates() == max_min_fair_rates(flows, capacities, bottlenecks)
    assert solver.bottlenecks() == bottlenecks
    reference: dict = {}
    reference_bottlenecks: dict = {}
    for component in reference_components(flows):
        reference.update(reference_fill(component, capacities, reference_bottlenecks))
    assert solver.rates() == reference
    assert solver.bottlenecks() == reference_bottlenecks


class TestThresholdChurn:
    @settings(max_examples=80, deadline=None)
    @given(ops=churn_scripts())
    def test_solver_matches_batch_and_reference(self, ops):
        solver = fresh_solver()
        for op in ops:
            apply(solver, op)
            assert_matches_oracles(solver)

    def test_long_script_crosses_the_threshold_on_every_path(self, monkeypatch):
        # A seeded 600-op script over a component big enough to record
        # traces: every op is checked against both oracles, and the
        # script must move channels both ways across the threshold and
        # skip unbindable channels in fresh fills, replay resumes and
        # replay-commit continuations alike.
        seen = {"fresh": 0, "resume": 0, "continuation": 0}
        phase = [None]
        fill = fairshare._fill

        def spying_fill(flows, capacities, bindable, *args):
            if any(c not in bindable for flow in flows for c in flow.channels):
                seen[phase[0] or "fresh"] += 1
            return fill(flows, capacities, bindable, *args)

        def in_phase(name, method):
            def wrapper(*args, **kwargs):
                phase[0] = name
                try:
                    return method(*args, **kwargs)
                finally:
                    phase[0] = None

            return wrapper

        monkeypatch.setattr(fairshare, "_fill", spying_fill)
        phases = (("resume", "_replay_resume"), ("continuation", "_replay_commit"))
        for name, attr in phases:
            monkeypatch.setattr(
                FairshareSolver, attr, in_phase(name, getattr(FairshareSolver, attr))
            )

        rng = random.Random(19)
        names = sorted(CAPACITIES)
        solver = fresh_solver()
        # A wide cold backbone couples every flow into one component.
        solver.add_channel("spine", 1e6)
        flips = {"to_bindable": 0, "to_unbindable": 0}
        live: list[int] = []
        for index in range(600):
            before = set(solver._bindable)
            roll = rng.random()
            if roll < 0.45 or len(live) < 10:
                channel = rng.choice(names)
                cap = near_threshold_cap(
                    CAPACITIES[channel], rng.randint(1, 4), rng.choice(SLACKS)
                )
                if rng.random() < 0.1:
                    cap = INF
                route = (rng.choice(names), "spine", channel)
                solver.add_flow(FlowSpec(index, route, cap))
                live.append(index)
            elif roll < 0.9:
                solver.remove_flow(live.pop(rng.randrange(len(live))))
            else:
                channel = rng.choice(names)
                base = CAPACITIES[channel]
                solver.set_capacity(
                    channel,
                    rng.choice(
                        [base / 2, 2 * base]
                        + [near_threshold_capacity(base, s) for s in (-2.0, 0.0, 2.5)]
                    ),
                )
            assert_matches_oracles(solver)
            after = set(solver._bindable)
            flips["to_bindable"] += len(after - before)
            flips["to_unbindable"] += len(before - after)
        assert solver.stats.dirty_relevels > 0
        assert solver.stats.frontier_releveled > 0
        assert all(seen.values()), seen
        assert all(flips.values()), flips


class TestThresholdCrossings:
    def test_capacity_drop_makes_a_channel_bindable(self):
        solver = fresh_solver()
        for flow_id in range(2):
            solver.add_flow(FlowSpec(flow_id, ("a",), cap=40.0))
        assert "a" not in solver._bindable
        solver.set_capacity("a", 50.0)
        assert "a" in solver._bindable
        assert solver.rates() == {0: 25.0, 1: 25.0}
        assert_matches_oracles(solver)

    @pytest.mark.parametrize("slacks", SLACKS)
    def test_cap_sum_at_the_threshold(self, slacks):
        # Two members leave ``slacks`` slacks of "a" unused; the batch
        # solve and the solver decide alike and both match the oracle.
        solver = fresh_solver()
        cap = near_threshold_cap(100.0, 2, slacks)
        solver.add_flow(FlowSpec(0, ("a",), cap))
        solver.add_flow(FlowSpec(1, ("a", "b"), cap))
        assert ("a" in solver._bindable) == fairshare._may_bind(100.0, cap + cap, 0)
        assert_matches_oracles(solver)

    def test_removal_that_unbinds_a_full_channel_relevels_its_members(self):
        # "hot" is full in round 0 of the recorded solve; the untouched
        # "other" certifies that round.  Removing one hot flow leaves
        # the others' caps below hot's capacity: hot cannot bind any
        # more, but its members were frozen there and must now rise to
        # their caps, so the replay has to check it although it is
        # unbindable now.
        solver = FairshareSolver(track_bottlenecks=True)
        for channel, capacity in (("hot", 100.0), ("other", 100.0), ("side", 1000.0)):
            solver.add_channel(channel, capacity)
        for flow_id in range(8):
            route = ("hot" if flow_id < 4 else "other", "side")
            solver.add_flow(FlowSpec(flow_id, route, cap=30.0))
        assert solver.rates() == dict.fromkeys(range(8), 25.0)
        solver.remove_flow(0)
        assert "hot" not in solver._bindable
        assert solver.rates() == {
            **dict.fromkeys(range(1, 4), 30.0),
            **dict.fromkeys(range(4, 8), 25.0),
        }
        assert_matches_oracles(solver)


#: FlowNetwork channels (``ch<i>``) for the network-level case.
NETWORK_CAPACITIES = [100.0, 60.0, 150.0]


@st.composite
def network_workloads(draw):
    flow_specs = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        channels = draw(
            st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=3)
        )
        capacity = NETWORK_CAPACITIES[draw(st.sampled_from(channels))]
        cap = draw(
            st.sampled_from(
                [INF]
                + [
                    near_threshold_cap(capacity, k, s)
                    for k in (1, 2, 3)
                    for s in (0.5, 1.9, 2.1, 3.0)
                ]
            )
        )
        size = draw(st.sampled_from([7.5, 64.0, 333.0]))
        delay = draw(st.sampled_from([0.0, 0.25, 1.0]))
        flow_specs.append((channels, size, delay, cap))
    changes = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.25, 1.0, 2.4]),
                st.integers(min_value=0, max_value=2),
                st.sampled_from([0.5, 1.0 + 1e-6, 1.0 + 2.5e-6, 2.0]),
            ),
            max_size=3,
        )
    )
    scaled = [
        (at, index, NETWORK_CAPACITIES[index] * factor)
        for at, index, factor in changes
    ]
    return flow_specs, scaled


class TestNetworkAtTheThreshold:
    @settings(max_examples=40, deadline=None)
    @given(workload=network_workloads())
    def test_network_matches_oracle_with_spans(self, workload):
        flow_specs, changes = workload
        capacities = NETWORK_CAPACITIES
        oracle = run_workload(OracleFlowNetwork, capacities, flow_specs, changes)
        assert run_workload(FlowNetwork, capacities, flow_specs, changes) == oracle
