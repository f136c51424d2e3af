"""Regression tests for flow-accounting edge cases.

Each class pins one historical bug: ``utilization()`` divided by zero
(or inf) capacity, ``achieved_rate`` returned ``inf`` for zero-duration
transfers, ``add_channel`` accepted non-positive capacities that
blew up later mid-solve, a NaN size hung the run, a bad cap left a
zombie flow behind, and metrics counted a repeated route channel twice.
"""

import math
import warnings

import pytest

from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import SimEngine
from repro.sim.flow import Channel, FlowNetwork


def _network():
    engine = SimEngine()
    return engine, FlowNetwork(engine)


class TestUtilizationGuards:
    def test_infinite_capacity_is_never_utilized(self):
        engine, network = _network()
        network.add_channel("unbounded", math.inf)
        network.transfer(["unbounded"], 100.0, cap=10.0)
        assert network.utilization("unbounded") == 0.0
        engine.run()
        assert network.utilization("unbounded") == 0.0

    def test_zero_capacity_idle_channel_reads_zero(self):
        _, network = _network()
        network.add_channel("c", 10.0)
        network.set_capacity("c", 0.0)
        assert network.utilization("c") == 0.0

    def test_zero_capacity_with_pinned_flows_reads_saturated(self):
        """Defensive guard: if capacity hits zero *under* a flow (e.g. a
        direct Channel poke that bypasses the re-level), the channel
        reads fully utilized, not a ZeroDivisionError."""
        _, network = _network()
        network.add_channel("c", 10.0)
        network.transfer(["c"], 100.0)
        network.channel("c").set_capacity(0.0)
        assert network.utilization("c") == 1.0

    def test_normal_utilization_unchanged(self):
        _, network = _network()
        network.add_channel("c", 10.0)
        network.transfer(["c"], 100.0)
        assert network.utilization("c") == pytest.approx(1.0)


class TestAchievedRateDegenerates:
    def test_inflight_flow_has_no_achieved_rate(self):
        _, network = _network()
        network.add_channel("c", 10.0)
        flow = network.transfer(["c"], 100.0)
        assert flow.achieved_rate is None

    def test_zero_byte_transfer_yields_none_not_inf(self):
        _, network = _network()
        network.add_channel("c", 10.0)
        flow = network.transfer(["c"], 0.0)
        assert flow.completed
        assert flow.elapsed == 0.0
        assert flow.achieved_rate is None

    def test_completed_flow_reports_average_rate(self):
        engine, network = _network()
        network.add_channel("c", 10.0)
        flow = network.transfer(["c"], 100.0)
        engine.run()
        assert flow.achieved_rate == pytest.approx(10.0)


class TestChannelValidation:
    def test_add_channel_rejects_zero_and_negative_capacity(self):
        _, network = _network()
        with pytest.raises(SimulationError, match="positive"):
            network.add_channel("zero", 0.0)
        with pytest.raises(SimulationError, match="positive"):
            network.add_channel("negative", -5.0)

    def test_add_channel_rejects_duplicates(self):
        _, network = _network()
        network.add_channel("c", 1.0)
        with pytest.raises(SimulationError, match="already exists"):
            network.add_channel("c", 2.0)

    def test_channel_constructor_rejects_non_positive(self):
        with pytest.raises(SimulationError, match="positive"):
            Channel("c", 0.0)

    def test_channel_set_capacity_rejects_negative(self):
        channel = Channel("c", 1.0)
        with pytest.raises(SimulationError, match="non-negative"):
            channel.set_capacity(-1.0)
        channel.set_capacity(0.0)  # zero = failed link, legal
        assert channel.capacity == 0.0


class TestTransferValidation:
    def test_nan_size_is_rejected(self):
        engine, network = _network()
        network.add_channel("c", 10.0)
        with pytest.raises(SimulationError, match="non-negative"):
            network.transfer(["c"], math.nan)
        assert network.active_flows() == []
        assert engine.run(until=100.0) == 0.0  # nothing queued, no hang

    @pytest.mark.parametrize("cap", [0.0, -5.0, math.nan])
    def test_bad_cap_leaves_no_zombie_flow(self, cap):
        engine, network = _network()
        network.add_channel("c", 10.0)
        with pytest.raises(SimulationError, match="cap must be positive"):
            network.transfer(["c"], 100.0, cap=cap)
        assert network.active_flows() == []
        assert len(network.solver) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "divide by zero" re-levels
            flow = network.transfer(["c"], 100.0)
            engine.run()
        assert flow.finish_time == 10.0
        assert flow.flow_id == 0  # the rejected transfer took no id


class TestRepeatedRouteChannel:
    def test_metrics_count_a_repeated_channel_once(self):
        # fig02's H2D memcpy route lists ('dram', 0) twice; the solver
        # counts the channel once, and so must the metrics.
        engine = SimEngine()
        metrics = MetricsRegistry()
        network = FlowNetwork(engine, metrics=metrics)
        network.add_channel("c", 10.0)
        network.add_channel("d", 20.0)
        flow = network.transfer(["c", "d", "c"], 100.0)
        engine.run()
        assert flow.finish_time == 10.0
        usage = metrics.channels()["c"]
        assert usage.bytes == flow.size
        assert usage.utilization <= 1.0
        assert usage.flows == 1
        assert usage.max_concurrent_flows == 1
        assert metrics.channels()["d"].bytes == flow.size
