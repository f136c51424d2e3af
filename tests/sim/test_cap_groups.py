"""Cap constraints leveled per distinct cap value, against the oracle.

The filling core groups the unfrozen capped flows of a component by cap
value: each round takes one headroom per group, freezes whole groups at
their cap, and writes the round's binding caps from the groups in flow
order.  These tests aim at the cases where that could part from a
per-flow loop:

- many flows with the same cap;
- caps within the cap slack (1e-9) of each other, whose groups freeze
  in one round;
- a cap at a channel's fair share, so that a channel freezes a flow
  and its cap clamps it in the same round (the rate is the cap, the
  blame stays with the channel);
- all-capped components, whose solver keeps an empty bindable set, and
  mixed ones that index channels.

Rates, freeze reasons and traces must equal ``reference_fill`` with
``==``, and the incremental solver must equal the batch solve after
every churn operation.  A fill that indexes no channel returns the caps
and walks the cap groups only for freeze reasons or, once a replay
reads it, a trace; ``TestAllCappedFill`` checks that walk round for
round, insertion order included, for fresh and resumed fills.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.fairshare import (
    FairshareSolver,
    FlowSpec,
    _bindable_channels,
    _fill,
    _solve_component,
    _Trace,
)

from .flow_oracle import assert_matches_oracles, reference_fill, solve_both

INF = float("inf")
#: "wide" never binds under the caps drawn here; the others can.
CAPACITIES = {"a": 100.0, "b": 60.0, "c": 90.0, "wide": 1e6}
TIGHT = ("a", "b", "c")
#: Relative offsets well inside the cap slack.
WITHIN_SLACK = (-4e-10, -1e-10, 1e-10, 4e-10)


@st.composite
def caps(draw, mixed: bool = True):
    kinds = ["repeat", "repeat", "slack"] + (["share", "share", "inf"] if mixed else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "repeat":
        return draw(st.sampled_from([5.0, 10.0, 12.5, 20.0]))
    if kind == "slack":
        base = draw(st.sampled_from([10.0, 20.0]))
        return base * (1.0 + draw(st.sampled_from(WITHIN_SLACK)))
    if kind == "share":
        # A channel's fair share among k flows, or just off it by less
        # than the cap slack: the channel fills and the cap clamps in
        # one round.
        share = CAPACITIES[draw(st.sampled_from(TIGHT))] / draw(st.integers(1, 6))
        return share * (1.0 + draw(st.sampled_from((0.0,) + WITHIN_SLACK)))
    return INF


@st.composite
def routes(draw, mixed: bool = True):
    names = TIGHT + ("wide",) if mixed else ("wide",)
    # Not unique: a route that repeats a channel counts it once.
    return tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3)))


@st.composite
def components(draw):
    mixed = draw(st.booleans())
    flows = [
        FlowSpec(index, draw(routes(mixed)), draw(caps(mixed)))
        for index in range(draw(st.integers(min_value=2, max_value=40)))
    ]
    return mixed, flows


#: Caps of all-capped fills: repeats, values within the cap slack of
#: one another, and the pair that ties on headroom above level 0.5.
CAPPED_VALUES = (
    0.5,
    5.0,
    10.0,
    10.0 * (1 - 4e-10),
    10.0 * (1 + 1e-10),
    10.0 * (1 + 4e-10),
    12.5,
    20.0,
    20.0 * (1 - 1e-10),
    2.0**52 + 2,
    2.0**52 + 3,
)
#: An unbounded channel never binds, whatever the caps.
OPEN = {"open": INF}


@st.composite
def capped_fills(draw):
    """An all-capped fill: flows, bindable set, level and round."""
    values = draw(
        st.lists(st.sampled_from(CAPPED_VALUES), min_size=1, max_size=6, unique=True)
    )
    extra = draw(st.lists(st.sampled_from(values), max_size=10))
    flows = [
        FlowSpec(index, draw(st.sampled_from(((), ("open",), ("open", "open")))), cap)
        for index, cap in enumerate(draw(st.permutations(values + extra)))
    ]
    # Channels of other components may be bindable; none of these is.
    bindable = draw(st.sampled_from((set(), {"elsewhere"})))
    if draw(st.booleans()):  # resumed, as replay resumes and continues
        level = draw(st.sampled_from((0.5, 1.0, 7.5, 10.0, 11.0, 2.0**51)))
        round_index = draw(st.integers(min_value=1, max_value=5))
    else:
        level, round_index = 0.0, 0
    return flows, bindable, level, round_index


@st.composite
def churn_scripts(draw):
    """add/remove ops; every route crosses "wide", so flows couple."""
    mixed = draw(st.booleans())
    ops = []
    live: list[int] = []
    for index in range(draw(st.integers(min_value=1, max_value=60))):
        if live and draw(st.integers(0, 3)) == 0:
            ops.append(("remove", live.pop(draw(st.integers(0, len(live) - 1)))))
        else:
            route = ("wide",) + draw(routes(mixed))
            ops.append(("add", index, route, draw(caps(mixed))))
            live.append(index)
    return mixed, ops


class TestCoreMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(problem=components())
    def test_random_components_agree_exactly(self, problem):
        mixed, flows = problem
        if not mixed:
            assert not _bindable_channels(flows, CAPACITIES)
        core, reference = solve_both(flows, CAPACITIES)
        assert core == reference

    def test_caps_within_the_slack_freeze_in_one_round(self):
        low, high = 10.0 * (1 - 4e-10), 10.0 * (1 + 4e-10)
        flows = [
            FlowSpec(index, ("wide",), cap)
            for index, cap in enumerate([high, 10.0, low, 10.0, high])
        ]
        core, reference = solve_both(flows, CAPACITIES)
        assert core == reference
        rates, _, deltas, freeze_round, _, _, binding_caps = core
        assert rates == {flow.flow_id: flow.cap for flow in flows}
        assert len(deltas) == 1
        assert set(freeze_round.values()) == {0}
        assert binding_caps == [{2}]

    def test_distinct_caps_that_tie_on_headroom_bind_together(self):
        # At level 0.5, 2**52 + 2 - 0.5 and 2**52 + 3 - 0.5 both round
        # to 2**52 + 2: two groups bind in one round, and their flows
        # are written and frozen in flow order, as a per-flow pass
        # would.
        low, high = 2.0**52 + 2, 2.0**52 + 3
        flows = [
            FlowSpec(0, (), high),
            FlowSpec(1, (), low),
            FlowSpec(2, (), 0.5),
            FlowSpec(3, (), high),
        ]
        core, reference = solve_both(flows, CAPACITIES)
        assert core == reference
        trace = _Trace()
        _solve_component(flows, CAPACITIES, {}, trace)
        assert trace.binding_caps == [(2,), (0, 1, 3)]
        assert list(trace.freeze_round) == [2, 0, 1, 3]

    @pytest.mark.parametrize("offset", (0.0,) + WITHIN_SLACK)
    def test_channel_freeze_and_cap_clamp_in_one_round(self, offset):
        # Four flows capped within the slack of 25 fill "a" (capacity
        # 100) to within its saturation slack in the round that raises
        # them to 25 or to their cap: "a" freezes them and takes the
        # blame, and the cap clamps them in the same round.  "b" is
        # shared by a capped and an uncapped flow and fills later.
        cap = 25.0 * (1.0 + offset)
        flows = [FlowSpec(index, ("a",), cap) for index in range(4)]
        flows.append(FlowSpec(4, ("b", "wide"), 40.0))
        flows.append(FlowSpec(5, ("b",), INF))
        core, reference = solve_both(flows, CAPACITIES)
        assert core == reference
        rates, bottlenecks, deltas, freeze_round = core[:4]
        assert [rates[index] for index in range(4)] == [cap] * 4
        assert [bottlenecks[index] for index in range(4)] == ["a"] * 4
        assert [freeze_round[index] for index in range(4)] == [0] * 4
        assert rates[4] == rates[5] == 30.0
        assert bottlenecks[4] == bottlenecks[5] == "b"


class TestChurnMatchesBatch:
    @settings(max_examples=120, deadline=None)
    @given(script=churn_scripts())
    def test_solver_matches_batch_and_reference(self, script):
        mixed, ops = script
        solver = FairshareSolver(track_bottlenecks=True)
        for channel, capacity in CAPACITIES.items():
            solver.add_channel(channel, capacity)
        for op in ops:
            if op[0] == "add":
                _, flow_id, route, cap = op
                solver.add_flow(FlowSpec(flow_id, route, cap))
            else:
                solver.remove_flow(op[1])
            if not mixed:
                assert not solver._bindable
            assert_matches_oracles(solver)

    def test_all_capped_component_replays_and_matches(self):
        # One component of 40 flows over "wide" with a handful of
        # repeated caps: big enough to record traces, and every add and
        # remove replays against a trace with the same cap groups.
        solver = FairshareSolver(track_bottlenecks=True)
        for channel, capacity in CAPACITIES.items():
            solver.add_channel(channel, capacity)
        values = [5.0, 10.0, 10.0 * (1 + 1e-10), 12.5]
        for index in range(40):
            solver.add_flow(FlowSpec(index, ("wide",), values[index % 4]))
            assert_matches_oracles(solver)
        for index in range(0, 40, 3):
            solver.remove_flow(index)
            assert_matches_oracles(solver)
        assert not solver._bindable
        assert solver.stats.dirty_relevels > 0


class TestAllCappedFill:
    @settings(max_examples=400, deadline=None)
    @given(
        fill=capped_fills(),
        with_trace=st.booleans(),
        with_blame=st.booleans(),
    )
    def test_matches_reference_round_for_round(self, fill, with_trace, with_blame):
        flows, bindable, level, round_index = fill
        assert not _bindable_channels(flows, OPEN)
        trace = _Trace() if with_trace else None
        blame = {} if with_blame else None
        rates = _fill(flows, OPEN, bindable, blame, trace, None, level, round_index)
        reference_trace = _Trace()
        reference_blame: dict = {}
        reference = reference_fill(
            flows,
            OPEN,
            reference_blame,
            reference_trace,
            level=level,
            round_index=round_index,
        )
        assert list(rates.items()) == list(reference.items())
        assert rates == {flow.flow_id: flow.cap for flow in flows}
        if with_trace:
            # Without freeze reasons the walk waits for a reader; the
            # rounds it then appends are the ones checked below.
            if with_blame:
                assert trace.deferred is None
            else:
                assert trace.deltas == [] and trace.freeze_round == {}
                trace.walk()
                assert trace.deferred is None
            assert trace.deltas == reference_trace.deltas
            assert trace.binding_caps == reference_trace.binding_caps
            assert trace.binding_channels == reference_trace.binding_channels
            assert list(trace.freeze_round.items()) == list(
                reference_trace.freeze_round.items()
            )
            assert trace.full_round == reference_trace.full_round == {}
        if with_blame:
            assert list(blame.items()) == list(reference_blame.items())

    def test_tied_headroom_merges_in_flow_order_when_resumed(self):
        # Resumed at level 0.5, the caps 2**52 + 2 and 2**52 + 3 tie
        # on headroom: the round binds and freezes both groups in flow
        # order, not group order.
        low, high = 2.0**52 + 2, 2.0**52 + 3
        flows = [FlowSpec(0, (), high), FlowSpec(1, (), low), FlowSpec(2, (), high)]
        trace = _Trace()
        blame: dict = {}
        rates = _fill(flows, OPEN, set(), blame, trace, None, 0.5, 3)
        assert rates == {0: high, 1: low, 2: high}
        assert trace.deltas == [2.0**52 + 2]
        assert trace.binding_channels == [()]
        assert trace.binding_caps == [(0, 1, 2)]
        assert list(trace.freeze_round.items()) == [(0, 3), (1, 3), (2, 3)]
        assert list(blame.items()) == [(0, None), (1, None), (2, None)]

    @pytest.mark.parametrize("recorded", [False, True])
    def test_uncapped_flow_without_channels_still_raises(self, recorded):
        flows = [FlowSpec(0, (), 5.0), FlowSpec(1, (), INF), FlowSpec(2, (), INF)]
        trace = _Trace() if recorded else None
        blame: "dict | None" = {} if recorded else None
        with pytest.raises(SimulationError, match=r"no cap\): \['1', '2'\]"):
            _fill(flows, OPEN, set(), blame, trace)
