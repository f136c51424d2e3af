"""The progressive-filling core against the independent reference loop.

``_solve_component`` levels every multi-flow component with one scalar
core that keeps its round state incrementally (local channel ids,
decremented active counts, one shared fill level).  The oracle's
``reference_fill`` re-derives that state from sets every round.  Both
must agree with ``==`` on everything the solver and the replay read:
rates, freeze reasons, and the trace's deltas, freeze and full rounds
and binding constraints.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.fairshare as fairshare
import repro.topology.presets as presets
from repro import Session
from repro.sim.fairshare import FlowSpec, _solve_component, _Trace

from .flow_oracle import reference_fill

#: Capacities drawn from a small set so that fair shares tie often; an
#: unbounded channel must never saturate.
CAPACITIES = (30.0, 60.0, 90.0, 120.0, math.inf)


def solve_both(flows, capacities):
    """Core and reference results: (rates, bottlenecks, trace fields)."""
    results = []
    for solve in (_solve_component, reference_fill):
        bottlenecks: dict = {}
        trace = _Trace()
        rates = solve(flows, capacities, bottlenecks, trace)
        results.append(
            (
                rates,
                bottlenecks,
                trace.deltas,
                trace.freeze_round,
                trace.full_round,
                [set(channels) for channels in trace.binding_channels],
                [set(caps) for caps in trace.binding_caps],
            )
        )
    return results


@st.composite
def components(draw):
    n_channels = draw(st.integers(min_value=1, max_value=8))
    names = [f"ch{i}" for i in range(n_channels)]
    capacities = {
        name: draw(st.sampled_from(CAPACITIES)) for name in names
    }
    n_flows = draw(st.integers(min_value=2, max_value=70))
    flows = []
    for index in range(n_flows):
        # Not unique: a route that repeats a channel must count once.
        channels = tuple(
            draw(st.lists(st.sampled_from(names), min_size=1, max_size=4))
        )
        kind = draw(st.sampled_from(["inf", "set", "share"]))
        unbounded = all(capacities[c] == math.inf for c in channels)
        if kind == "inf" and not unbounded:
            cap = math.inf
        elif kind == "set":
            cap = draw(st.sampled_from([5.0, 10.0, 15.0, 30.0]))
        else:
            # Exactly some channel's fair share among k flows: cap and
            # channel constraints tie in the same round.
            channel = draw(st.sampled_from(names))
            k = draw(st.integers(min_value=1, max_value=12))
            cap = capacities[channel] / k
            if cap == math.inf:
                cap = 20.0
        flows.append(FlowSpec(index, channels, cap))
    return flows, capacities


class TestCoreMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(problem=components())
    def test_random_components_agree_exactly(self, problem):
        flows, capacities = problem
        core, reference = solve_both(flows, capacities)
        assert core == reference

    def test_ring_component_of_a_64_gcd_cluster(self, monkeypatch):
        # The first 63-flow component a ring allreduce on
        # mi250x_cluster(nodes=8) levels: every GCD's send to its ring
        # neighbour, chained through the shared HBM channels.
        class Captured(Exception):
            pass

        solve = fairshare._solve_component

        def capture(flows, capacities, bottlenecks=None, trace=None, bindable=None):
            if len(flows) == 63:
                used = {c: capacities[c] for f in flows for c in f.channels}
                raise Captured(list(flows), used)
            return solve(flows, capacities, bottlenecks, trace, bindable)

        monkeypatch.setattr(fairshare, "_solve_component", capture)
        topology = presets.mi250x_cluster(nodes=8)
        try:
            with Session(topology) as session:
                comm = session.rccl_communicator(algorithm="ring")
                session.run(comm.allreduce(64 * 2**20))
        except Captured as captured:
            flows, capacities = captured.args
        else:
            raise AssertionError("the ring allreduce never levelled 63 flows")
        monkeypatch.undo()

        core, reference = solve_both(flows, capacities)
        assert core == reference
        assert len(core[2]) > 1  # several rounds, not a one-shot fill

    def test_caps_within_the_slack_of_capacity_fill_the_channel(self):
        # Two flows capped just under half of c leave less than the
        # saturation slack (1e-6 of capacity): c counts as full and
        # takes the blame, so the core may not skip it as never-full.
        flows = [FlowSpec(i, ("c",), cap=49.99996) for i in range(2)]
        core, reference = solve_both(flows, {"c": 100.0})
        assert core == reference
        assert core[1] == {0: "c", 1: "c"}
