"""Differential tests for the incremental fair-share solver.

The acceptance property of the redesign: a :class:`FairshareSolver`
driven through an arbitrary add/remove churn sequence must produce
**bit-identical** rates to a from-scratch batch ``max_min_fair_rates``
over the surviving flows, at every step.  The global pre-PR algorithm
(``max_min_fair_rates_reference``) is kept as an approximate oracle —
it levels in a different floating-point order, so agreement there is
up to tolerance, not bitwise.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.fairshare import (
    FairshareSolver,
    FlowSpec,
    allocation_is_feasible,
    max_min_fair_rates,
)

from .flow_oracle import max_min_fair_rates_reference

CHANNELS = [f"ch{i}" for i in range(12)]
CAPACITIES = {
    channel: capacity
    for channel, capacity in zip(
        CHANNELS,
        [1.0, 2.0, 0.5, 4.0, 1.5, 3.0, 0.25, 8.0, 2.5, 1.25, 6.0, 0.75],
    )
}


def _fresh_solver() -> FairshareSolver:
    solver = FairshareSolver()
    for channel, capacity in CAPACITIES.items():
        solver.add_channel(channel, capacity)
    return solver


@st.composite
def churn_sequences(draw):
    """A list of add/remove operations over the fixed channel set."""
    num_ops = draw(st.integers(min_value=1, max_value=60))
    ops = []
    live = 0
    for index in range(num_ops):
        remove_possible = live > 0
        do_remove = remove_possible and draw(st.booleans())
        if do_remove:
            victim = draw(st.integers(min_value=0, max_value=live - 1))
            ops.append(("remove", victim))
            live -= 1
        else:
            channels = tuple(
                sorted(
                    draw(
                        st.sets(
                            st.sampled_from(CHANNELS), min_size=1, max_size=4
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
@given(churn_sequences())
def test_incremental_bitwise_identical_to_batch(ops):
    solver = _fresh_solver()
    live: list[FlowSpec] = []
    next_id = 0
    for op in ops:
        if op[0] == "add":
            _, channels, cap = op
            spec = FlowSpec(next_id, channels, cap)
            next_id += 1
            live.append(spec)
            solver.add_flow(spec)
        else:
            victim = live.pop(op[1])
            solver.remove_flow(victim.flow_id)

        batch = max_min_fair_rates(live, CAPACITIES)
        incremental = solver.rates()
        assert incremental == batch  # bitwise: no tolerance

        if live:
            assert allocation_is_feasible(live, CAPACITIES, incremental)


@settings(max_examples=30, deadline=None)
@given(churn_sequences())
def test_component_solver_matches_global_reference(ops):
    """Decomposed batch solve ≈ the old global algorithm (1e-9 rel)."""
    live: list[FlowSpec] = []
    next_id = 0
    for op in ops:
        if op[0] == "add":
            _, channels, cap = op
            live.append(FlowSpec(next_id, channels, cap))
            next_id += 1
        else:
            live.pop(op[1])
    decomposed = max_min_fair_rates(live, CAPACITIES)
    reference = max_min_fair_rates_reference(live, CAPACITIES)
    assert decomposed.keys() == reference.keys()
    for flow_id, rate in decomposed.items():
        assert rate == pytest.approx(reference[flow_id], rel=1e-9, abs=1e-12)


class TestSolverBookkeeping:
    def test_remove_splits_component(self):
        solver = _fresh_solver()
        solver.add_flow(FlowSpec(0, ("ch0",), math.inf))
        solver.add_flow(FlowSpec(1, ("ch1",), math.inf))
        bridge = FlowSpec(2, ("ch0", "ch1"), math.inf)
        solver.add_flow(bridge)
        assert solver.component_of(0) == solver.component_of(1)

        solver.remove_flow(2)
        assert solver.component_of(0) != solver.component_of(1)
        assert solver.rates() == max_min_fair_rates(
            [FlowSpec(0, ("ch0",), math.inf), FlowSpec(1, ("ch1",), math.inf)],
            CAPACITIES,
        )

    def test_add_flow_returns_only_touched_component(self):
        solver = _fresh_solver()
        solver.add_flow(FlowSpec(0, ("ch0",), math.inf))
        updated = solver.add_flow(FlowSpec(1, ("ch3",), math.inf))
        assert set(updated) == {1}

    def test_stats_accumulate(self):
        solver = _fresh_solver()
        solver.add_flow(FlowSpec(0, ("ch0",), math.inf))
        solver.add_flow(FlowSpec(1, ("ch0",), math.inf))
        solver.remove_flow(0)
        stats = solver.stats.as_dict()
        assert stats["flows_added"] == 2
        assert stats["flows_removed"] == 1
        assert stats["component_solves"] >= 2

    def test_remove_unknown_flow_raises(self):
        from repro.errors import SimulationError

        solver = _fresh_solver()
        with pytest.raises(SimulationError):
            solver.remove_flow(99)
