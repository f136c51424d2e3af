"""Deferred cap-group walks write the traces an eager walk writes.

A fill that indexes no channel returns the caps and, when asked for a
trace but not for freeze reasons, stores its walk's inputs on the trace
instead of walking the cap groups; a replay walks them before it reads
the trace.  These tests run the same churn script on two solvers
without bottleneck tracking (the path that defers):

- the solver as it is, which walks late or never;
- the same solver with ``_fill`` wrapped so that every deferred walk
  runs at once on the fill's own arguments, which is the eager walk.

After every operation the lazy solver's stored traces, once walked,
must equal the eager solver's, round for round and in insertion order;
rates must equal the batch solve, and every ``SolverStats`` counter
must equal the eager solver's.  The scripts hold all-capped components
of at least 8 flows (so they record traces) and push them into
bindable states through uncapped arrivals, cap sums that cross the
never-binding threshold and ``set_capacity``.
"""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.fairshare as fairshare
from repro.sim.fairshare import (
    FairshareSolver,
    FlowSpec,
    _Trace,
    _walk_cap_groups,
    max_min_fair_rates,
)

INF = float("inf")
#: The spines never bind unless an uncapped flow crosses them.
CAPACITIES = {"a": 100.0, "b": 100.0, "c": 60.0, "s0": 1e6, "s1": 1e6}
NAMES = ("a", "b", "c")
#: Unused capacity, in saturation slacks (1e-6 of capacity), that a
#: cap sum leaves: the never-binding threshold is 2.
SLACKS = (0.5, 1.9, 2.1, 4.0, 1e4)


def near_threshold_cap(channel: str, members: int, slacks: float) -> float:
    return CAPACITIES[channel] * (1.0 - slacks * 1e-6) / members


def new_capacity(channel: str, choice: int) -> float:
    base = CAPACITIES[channel]
    return (base / 2, base, 2 * base, base * (1 + 2.5e-6), base * (1 - 2e-6))[choice]


def route_choices(channel: str) -> list[tuple[str, ...]]:
    """Routes that couple through a spine or a tight channel, or bridge
    the spines: removals split components and arrivals merge them."""
    return [("s0",), ("s1",), ("s0", "s1"), ("s0", channel), ("s1", channel), (channel,)]


def cap_choices(channel: str) -> list[float]:
    """Small caps that keep channels unbindable, and caps whose sums
    cross the never-binding threshold at 8 members."""
    return [1.0, 2.5] + [near_threshold_cap(channel, 8, s) for s in SLACKS]


@st.composite
def churn_scripts(draw):
    """Capped adds that build one component of 8+ flows, then churn."""
    ops = []
    live: list[int] = []
    start = draw(st.integers(min_value=8, max_value=14))
    for index in range(start + draw(st.integers(min_value=1, max_value=50))):
        kind = "add"
        if index >= start:
            kind = draw(st.sampled_from(["add", "add", "remove", "remove", "capacity"]))
        if kind == "remove" and live:
            ops.append(("remove", live.pop(draw(st.integers(0, len(live) - 1)))))
        elif kind == "capacity":
            channel = draw(st.sampled_from(NAMES))
            ops.append(("capacity", channel, new_capacity(channel, draw(st.integers(0, 4)))))
        else:
            channel = draw(st.sampled_from(NAMES))
            if index < start:
                route, cap = ("s0", channel), draw(st.sampled_from(cap_choices(channel)))
            else:
                route = draw(st.sampled_from(route_choices(channel)))
                cap = draw(st.sampled_from(cap_choices(channel) + [INF]))
            ops.append(("add", index, route, cap))
            live.append(index)
    return ops


FILL = fairshare._fill


def eager_fill(
    flows,
    capacities,
    bindable,
    bottlenecks=None,
    trace=None,
    residuals=None,
    level=0.0,
    round_index=0,
):
    """``_fill`` with any deferred walk run at once on its own arguments."""
    rates = FILL(
        flows, capacities, bindable, bottlenecks, trace, residuals, level, round_index
    )
    if trace is not None and trace.deferred is not None:
        trace.deferred = None
        _walk_cap_groups(flows, None, trace, level, round_index)
    return rates


def walked(trace: _Trace) -> tuple:
    """A trace's rounds after its deferred walk, leaving it unwalked."""
    copy = _Trace()
    copy.deltas = list(trace.deltas)
    copy.freeze_round = dict(trace.freeze_round)
    copy.full_round = dict(trace.full_round)
    copy.binding_channels = list(trace.binding_channels)
    copy.binding_caps = list(trace.binding_caps)
    copy.deferred = trace.deferred
    copy.walk()
    return (
        copy.deltas,
        copy.binding_channels,
        copy.binding_caps,
        list(copy.freeze_round.items()),
        list(copy.full_round.items()),
    )


def apply(solver: FairshareSolver, op) -> None:
    if op[0] == "add":
        _, flow_id, route, cap = op
        solver.add_flow(FlowSpec(flow_id, route, cap))
    elif op[0] == "remove":
        solver.remove_flow(op[1])
    else:
        solver.set_capacity(op[1], op[2])


def run(ops) -> list[tuple]:
    """Per op: rates, counters and every stored trace, walked."""
    solver = FairshareSolver(CAPACITIES)
    observed = []
    for op in ops:
        apply(solver, op)
        assert solver.rates() == max_min_fair_rates(
            solver.flows(), solver.capacities()
        )
        traces = {comp: walked(trace) for comp, trace in solver._traces.items()}
        observed.append((solver.rates(), solver.stats.as_dict(), traces))
    return observed


def assert_lazy_matches_eager(ops) -> None:
    lazy = run(ops)
    with mock.patch.object(fairshare, "_fill", eager_fill):
        eager = run(ops)
    for op, (rates, stats, traces), expected in zip(ops, lazy, eager):
        assert rates == expected[0], op
        assert stats == expected[1], op
        assert traces == expected[2], op


class TestLazyMatchesEager:
    @settings(max_examples=300, deadline=None)
    @given(ops=churn_scripts())
    def test_churn_scripts_agree(self, ops):
        assert_lazy_matches_eager(ops)

    def test_long_script_defers_walks_on_every_path(self, monkeypatch):
        # A seeded 600-op script: it must defer walks, walk some of them
        # for replays of fresh solves and of continued ones, drop
        # others unread, and move between all-capped and bindable.
        rng = random.Random(33)
        ops = []
        live: list[int] = []
        for index in range(600):
            roll = rng.random()
            channel = rng.choice(NAMES)
            if roll < 0.47 or len(live) < 10:
                cap = rng.choice(cap_choices(channel) + [1.0] * 20 + [INF])
                route = rng.choice(route_choices(channel))
                ops.append(("add", index, route, cap))
                live.append(index)
            elif roll < 0.95:
                ops.append(("remove", live.pop(rng.randrange(len(live)))))
            else:
                ops.append(("capacity", channel, new_capacity(channel, rng.randrange(5))))
        assert_lazy_matches_eager(ops)

        # Keyed by id; holding the tuples keeps their ids unique.
        deferred: dict[int, tuple] = {}
        levels: list[float] = []
        walk = _Trace.walk

        def counting_walk(trace):
            if trace.deferred is not None:
                levels.append(trace.deferred[1])
            return walk(trace)

        monkeypatch.setattr(_Trace, "walk", counting_walk)
        solver = FairshareSolver(CAPACITIES)
        bindable_seen = 0
        for op in ops:
            apply(solver, op)
            bindable_seen += bool(solver._bindable)
            for trace in solver._traces.values():
                if trace.deferred is not None:
                    deferred.setdefault(id(trace.deferred), trace.deferred)
        assert solver.stats.dirty_relevels > 0
        assert 0 < len(levels) < len(deferred)
        assert 0.0 in levels and any(level > 0.0 for level in levels)
        assert 0 < bindable_seen < len(ops)
