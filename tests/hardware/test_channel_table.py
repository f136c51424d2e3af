"""A node's network adopts its compiled channel table.

Every node on one (topology, calibration) pair shares one
:class:`~repro.sim.flow.ChannelTable`; the tests pin that adoption
equals registering the channels one by one, that the table is keyed by
the calibration too, that faults on one node never reach another, and
that the process-wide memo stays bounded.
"""

import math
import pathlib
import sys
import threading

import pytest

from repro import Session
from repro.core.calibration import CalibrationProfile
from repro.errors import SimulationError
from repro.faults import FaultScenario, LinkFail
from repro.hardware.node import HardwareNode
from repro.sim.engine import SimEngine
from repro.sim.fairshare import FairshareSolver
from repro.sim.flow import FlowNetwork
from repro.topology import load_topology
from repro.topology.compiled import MAX_CHANNEL_TABLES
from repro.topology.presets import (
    dense_hive_node,
    frontier_node,
    mi250x_cluster,
    single_gpu_node,
)

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
TOPOLOGY_DIR = BENCHMARKS / "topologies"

TOPOLOGIES = {
    "frontier_node": frontier_node,
    "single_gpu_node": single_gpu_node,
    "dense_hive_node": dense_hive_node,
    "mi250x_cluster_2": lambda: mi250x_cluster(2),
    "mi250x_cluster_8": lambda: mi250x_cluster(8),
    **{
        f"file:{path.name}": (lambda path=path: load_topology(path))
        for path in sorted(TOPOLOGY_DIR.glob("*.json"))
    },
}


def _registered_one_by_one(topology, calibration) -> FlowNetwork:
    """The channel-by-channel registration a node's table stands for."""
    network = FlowNetwork(SimEngine())
    for link in topology.links():
        network.add_channel(("link", link.name, "fwd"), link.capacity_per_direction)
        network.add_channel(("link", link.name, "rev"), link.capacity_per_direction)
    network.add_channel(("socket",), calibration.socket_fabric_bw)
    for numa in topology.numa_domains():
        network.add_channel(("dram", numa.index), calibration.dram_bw_per_numa)
        network.add_channel(("numaport", numa.index), calibration.numa_ifport_bw)
    for gcd in topology.gcds():
        network.add_channel(("hbm", gcd.index), calibration.hbm_stream_bw(gcd.hbm_peak_bw))
        for direction in ("in", "out"):
            network.add_channel(
                ("sdma", gcd.index, direction), calibration.sdma_engine_throughput
            )
    return network


def _peer_copy_time(node: HardwareNode) -> float:
    """Simulated time of a 1 GB gcd1→gcd3 copy over the node's fabric."""
    flow = node.start_flow(node.gcd_to_gcd_channels(1, 3), 1e9)
    node.run_all()
    return flow.elapsed


class TestAdoptionEqualsRegistration:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_ids_order_capacities_and_solver_ids(self, name, calibration):
        topology = TOPOLOGIES[name]()
        adopted = HardwareNode(topology, calibration).network
        reference = _registered_one_by_one(topology, calibration)
        assert list(adopted.capacities().items()) == list(
            reference.capacities().items()
        )
        assert list(adopted._channel_ids) == list(reference._channel_ids)
        assert dict(adopted._solver_ids) == reference._solver_ids
        assert adopted.solver.capacities() == reference.solver.capacities()

    def test_table_is_shared_and_read_only(self, topology, calibration):
        a = HardwareNode(topology, calibration).network
        b = HardwareNode(topology, calibration).network
        assert a._table is b._table
        with pytest.raises(TypeError):
            a._table.capacities[0] = 1.0
        with pytest.raises(TypeError):
            a._table.solver_ids[("socket",)] = 0
        with pytest.raises(SimulationError, match="compiled channel table"):
            a.add_channel("extra", 1.0)

    def test_nan_capacity_is_rejected_when_the_table_compiles(self, topology):
        profile = CalibrationProfile.default().with_(numa_ifport_bw=math.nan)
        with pytest.raises(SimulationError, match="capacity must be positive"):
            HardwareNode(topology, profile)

    def test_unknown_channel_capacity_raises(self, node):
        with pytest.raises(SimulationError, match="unknown channel"):
            node.network.capacity(("hbm", 99))


class TestCalibrationKeysTheTable:
    def test_two_calibrations_get_different_tables(self, topology, calibration):
        slow = calibration.with_(
            sdma_engine_throughput=calibration.sdma_engine_throughput / 2,
            dram_bw_per_numa=calibration.dram_bw_per_numa / 2,
        )
        default = HardwareNode(topology, calibration).network
        halved = HardwareNode(topology, slow).network
        assert default._table is not halved._table
        for network, profile in ((default, calibration), (halved, slow)):
            assert network.capacity(("sdma", 0, "out")) == profile.sdma_engine_throughput
            assert network.capacity(("dram", 0)) == profile.dram_bw_per_numa
        assert default.capacities() == _registered_one_by_one(topology, calibration).capacities()
        assert halved.capacities() == _registered_one_by_one(topology, slow).capacities()

    def test_memo_stays_within_its_bound(self, topology, calibration):
        compiled = topology.compiled()
        for step in range(MAX_CHANNEL_TABLES + 8):
            profile = calibration.with_(socket_fabric_bw=1e12 + step)
            network = HardwareNode(topology, profile).network
            assert network.capacity(("socket",)) == 1e12 + step
            assert len(compiled._channel_tables) <= MAX_CHANNEL_TABLES

    def test_threads_share_tables_without_mixing_calibrations(self, topology, calibration):
        profiles = [
            calibration.with_(sdma_engine_throughput=40e9 + step)
            for step in range(MAX_CHANNEL_TABLES + 4)
        ]
        expected = {
            profile.sdma_engine_throughput: _registered_one_by_one(topology, profile).capacities()
            for profile in profiles
        }
        wrong: list = []

        def build(offset: int) -> None:
            for step in range(60):
                profile = profiles[(offset + step) % len(profiles)]
                capacities = HardwareNode(topology, profile).network.capacities()
                if capacities != expected[profile.sdma_engine_throughput]:
                    wrong.append(profile.sdma_engine_throughput)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i * 5,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(topology.compiled()._channel_tables) <= MAX_CHANNEL_TABLES


class TestFaultIsolation:
    @pytest.mark.parametrize(
        "scenario",
        [
            lambda: FaultScenario.load(BENCHMARKS / "scenarios" / "degrade_xgmi.json"),
            lambda: FaultScenario((LinkFail(link="gcd1-gcd3:single", at=0.0),), "fail"),
        ],
        ids=["degrade_xgmi", "link_fail"],
    )
    def test_fault_on_one_node_leaves_another_healthy(self, topology, scenario):
        expected = HardwareNode(topology).network.capacities()
        expected_time = _peer_copy_time(HardwareNode(topology))
        faulted = HardwareNode(topology, faults=scenario())
        bystander = HardwareNode(topology)
        faulted.run_all()  # applies the event at t=0
        link = topology.link_between(1, 3)
        assert faulted.network.capacity(link.channels[0]) < link.capacity_per_direction
        assert bystander.network.capacities() == expected
        assert HardwareNode(topology).network.capacities() == expected
        assert _peer_copy_time(bystander) == expected_time
        assert _peer_copy_time(HardwareNode(topology)) == expected_time


class TestNoPerNodeRegistration:
    def test_a_later_session_registers_no_channel(self, monkeypatch):
        Session()
        calls = []
        for owner in (FlowNetwork, FairshareSolver):
            original = owner.add_channel

            def spy(self, *args, _original=original, **kwargs):
                calls.append(args)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(owner, "add_channel", spy)
        session = Session()
        assert calls == []
        assert session.node.network.capacity(("socket",)) > 0
