"""Bit-identity of dirty-set replay and epoch deferral against oracles.

Dirty-set trace replay and epoch-deferred re-levels must be *exactly*
equivalent to solving from scratch — same rates, same bottleneck
attribution, same completion timestamps, down to the last float bit.
Equality below is ``==`` on floats throughout; ``pytest.approx`` would
hide exactly the bugs these tests exist for.

Two layers:

- solver level: random add/remove/``set_capacity`` sequences against
  a :class:`FairshareSolver`, cross-checked against the batch
  :func:`max_min_fair_rates` oracle after every op;
- network level: full :class:`FlowNetwork` workloads (including
  same-timestamp bursts, the epoch-deferral regime) compared with the
  per-event oracle network on the complete observable trace.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fairshare import FairshareSolver, FlowSpec, max_min_fair_rates
from repro.sim.flow import FlowNetwork

from .flow_oracle import OracleFlowNetwork, run_workload

#: Channel universe for the solver-level fuzz: a clique-ish core the
#: dirty threshold actually triggers on, plus private leaf channels.
CHANNELS = {
    "core0": 100.0,
    "core1": 150.0,
    "core2": 75.0,
    "leaf0": 50.0,
    "leaf1": 36.0,
    "leaf2": 200.0,
    "leaf3": 25.0,
}


@st.composite
def op_sequences(draw):
    """A deterministic add/remove/set_capacity script."""
    n_ops = draw(st.integers(min_value=1, max_value=60))
    ops = []
    live = 0
    names = sorted(CHANNELS)
    for index in range(n_ops):
        kind = draw(
            st.sampled_from(
                ["add", "add", "add", "remove", "set_capacity"]
                if live
                else ["add"]
            )
        )
        if kind == "add":
            channels = tuple(
                draw(
                    st.lists(
                        st.sampled_from(names),
                        min_size=1,
                        max_size=4,
                        unique=True,
                    )
                )
            )
            cap = draw(st.sampled_from([float("inf"), 20.0, 55.0, 80.0]))
            ops.append(("add", index, channels, cap))
            live += 1
        elif kind == "remove":
            ops.append(("remove", draw(st.integers(0, index - 1))))
            live -= 1
        else:
            ops.append(
                (
                    "set_capacity",
                    draw(st.sampled_from(names)),
                    draw(st.sampled_from([10.0, 40.0, 90.0, 160.0])),
                )
            )
    return ops


def assert_ops_match_batch(solver, ops):
    """Run a script, checking the solver against the batch oracle.

    After every add, remove or ``set_capacity``, the solver's cached
    rates and freeze reasons must equal a from-scratch
    :func:`max_min_fair_rates` over the live flows, bit for bit.
    """
    added = set()
    for op in ops:
        if op[0] == "add":
            _, flow_id, channels, cap = op
            solver.add_flow(FlowSpec(flow_id, channels, cap=cap))
            added.add(flow_id)
        elif op[0] == "remove":
            flow_id = op[1]
            if flow_id in added and flow_id in solver:
                solver.remove_flow(flow_id)
        else:
            solver.set_capacity(op[1], op[2])
        bottlenecks = {}
        rates = max_min_fair_rates(
            solver.flows(), solver.capacities(), bottlenecks
        )
        assert solver.rates() == rates
        assert solver.bottlenecks() == bottlenecks


def fresh_solver():
    solver = FairshareSolver(track_bottlenecks=True)
    for channel, capacity in sorted(CHANNELS.items()):
        solver.add_channel(channel, capacity)
    return solver


class TestDirtyReplayBitIdentical:
    @settings(max_examples=60, deadline=None)
    @given(ops=op_sequences())
    def test_dirty_equals_full_on_random_scripts(self, ops):
        assert_ops_match_batch(fresh_solver(), ops)

    @settings(max_examples=25, deadline=None)
    @given(ops=op_sequences())
    def test_dirty_matches_batch_oracle_at_end(self, ops):
        # The end state must not depend on channels no live flow uses:
        # the batch solve sees only the referenced capacities.
        solver = fresh_solver()
        assert_ops_match_batch(solver, ops)
        flows = solver.flows()
        capacities = solver.capacities()
        used = {c for spec in flows for c in spec.channels}
        oracle = max_min_fair_rates(flows, {c: capacities[c] for c in used})
        assert solver.rates() == oracle

    def test_churn_on_light_channel_replays_not_resolves(self):
        # The headline regime: a congested core freezes everything in
        # round 0, then steady churn on a lightly loaded leaf channel
        # must be absorbed by trace replay, not a full component
        # re-solve.  The buildup itself diverges at round 0 every time
        # (each arrival lands on the binding channel), so it drives the
        # component into replay backoff first — a few churn cycles
        # reach the probe trace, the probe's replay succeeds, and from
        # then on every churn op replays.
        solver = fresh_solver()
        for i in range(16):
            solver.add_flow(FlowSpec(("bg", i), ("core0", "leaf2")))
        for i in range(8):  # warm-up: rides out backoff to the probe
            solver.add_flow(FlowSpec(("warm", i), ("leaf2",), cap=20.0))
            solver.remove_flow(("warm", i))
        before = solver.stats.dirty_relevels
        solver.add_flow(FlowSpec("churn", ("leaf2",), cap=20.0))
        solver.remove_flow("churn")
        assert solver.stats.dirty_relevels >= before + 2

    def test_round0_churn_backs_off_trace_recording(self):
        # The anti-regime: every arrival changes the round-0 binding
        # constraint, so no replay can ever succeed — after the backoff
        # threshold the solver must stop paying for trace recording
        # (rates are differential-tested identical either way).
        solver = fresh_solver()
        for i in range(24):
            solver.add_flow(FlowSpec(("bg", i), ("core0",)))
        assert solver.stats.trace_skips > 0
        assert solver.stats.dirty_relevels == 0


@st.composite
def network_workloads(draw):
    n_channels = draw(st.integers(min_value=1, max_value=4))
    capacities = draw(
        st.lists(
            st.sampled_from([50.0, 100.0, 175.0, 275.0]),
            min_size=n_channels,
            max_size=n_channels,
        )
    )
    n_flows = draw(st.integers(min_value=1, max_value=12))
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
        size = draw(st.sampled_from([1.0, 7.5, 64.0, 100.0, 333.0]))
        # Few distinct delays → many same-timestamp arrivals, which is
        # exactly what epoch deferral coalesces into one solve.
        delay = draw(st.sampled_from([0.0, 0.25, 1.0]))
        cap = draw(st.sampled_from([float("inf"), 30.0, 80.0]))
        flow_specs.append((channels, size, delay, cap))
    changes = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.25, 1.0, 2.4]),
                st.integers(min_value=0, max_value=n_channels - 1),
                st.sampled_from([25.0, 60.0, 150.0]),
            ),
            max_size=3,
        )
    )
    return capacities, flow_specs, changes


class TestEpochDeferredBitIdentical:
    @settings(max_examples=40, deadline=None)
    @given(workload=network_workloads())
    def test_strategies_agree_on_completion_times(self, workload):
        capacities, flow_specs, changes = workload
        oracle = run_workload(OracleFlowNetwork, capacities, flow_specs, changes)
        assert (
            run_workload(FlowNetwork, capacities, flow_specs, changes) == oracle
        )

    def test_same_epoch_burst_single_solve(self):
        # All transfers land in one epoch; deferral coalesces them and
        # completion callbacks still fire in listing (flow-id) order.
        workload = ([100.0], [([0], 50.0, 0.0, float("inf"))] * 4)
        oracle = run_workload(OracleFlowNetwork, *workload)
        ids = [fid for fid, _ in oracle["completions"]]
        assert ids == sorted(ids)
        assert run_workload(FlowNetwork, *workload) == oracle
