"""Tests for the hardware device models (hbm, cache, sdma, cpu, gcd)."""

import pytest

from repro.core.calibration import CalibrationProfile
from repro.errors import AllocationError
from repro.hardware.cache import AccessClass, CacheHierarchy
from repro.hardware.cpu import CpuSocket
from repro.hardware.gcd import GcdDevice
from repro.hardware.hbm import HbmStack
from repro.hardware.xgmi import protocol_peak_bandwidth
from repro.topology.link import LinkTier
from repro.topology.node import GcdInfo
from repro.units import GiB, MiB


@pytest.fixture
def gcd_info():
    return GcdInfo(index=0, gpu_package=0, numa_domain=0)


class TestXgmiProtocol:
    def test_first_principles_peak(self):
        # 16 bit × 25 GT/s = 50 GB/s (§II-A).
        assert protocol_peak_bandwidth() == pytest.approx(50e9)


class TestHbm:
    def test_stream_bandwidth_is_87_percent(self, gcd_info, calibration):
        hbm = HbmStack(gcd_info, calibration)
        assert hbm.stream_bandwidth == pytest.approx(0.875 * 1.6e12)

    def test_capacity_ledger(self, gcd_info, calibration):
        hbm = HbmStack(gcd_info, calibration)
        hbm.reserve(10 * GiB)
        assert hbm.allocated_bytes == 10 * GiB
        hbm.release(10 * GiB)
        assert hbm.free_bytes == hbm.capacity_bytes

    def test_oom(self, gcd_info, calibration):
        hbm = HbmStack(gcd_info, calibration)
        with pytest.raises(AllocationError):
            hbm.reserve(hbm.capacity_bytes + 1)

    def test_over_release_rejected(self, gcd_info, calibration):
        hbm = HbmStack(gcd_info, calibration)
        with pytest.raises(AllocationError):
            hbm.release(1)

    def test_channel_registered(self, node):
        hbm = node.gcd(0).hbm
        assert hbm.channel == ("hbm", 0)
        assert node.network.capacity(hbm.channel) == hbm.stream_bandwidth


class TestCache:
    def test_classification(self, gcd_info, calibration):
        cache = CacheHierarchy(gcd_info, calibration)
        assert cache.classify(local=True, coherent=False) is AccessClass.LOCAL_CACHED
        assert (
            cache.classify(local=False, coherent=True)
            is AccessClass.REMOTE_UNCACHED
        )
        assert (
            cache.classify(local=False, coherent=False)
            is AccessClass.REMOTE_CACHEABLE
        )

    def test_llc_threshold_is_32mib(self, gcd_info, calibration):
        cache = CacheHierarchy(gcd_info, calibration)
        assert cache.fits_llc(32 * MiB)
        assert not cache.fits_llc(32 * MiB + 1)

    def test_coherent_streams_never_boosted(self, gcd_info, calibration):
        cache = CacheHierarchy(gcd_info, calibration)
        assert not cache.llc_boost_applies(1 * MiB, AccessClass.REMOTE_UNCACHED)
        assert cache.llc_boost_applies(1 * MiB, AccessClass.REMOTE_CACHEABLE)

    def test_hit_fraction(self, gcd_info, calibration):
        cache = CacheHierarchy(gcd_info, calibration)
        assert cache.streaming_hit_fraction(16 * MiB, AccessClass.LOCAL_CACHED) == 1.0
        assert cache.streaming_hit_fraction(
            64 * MiB, AccessClass.LOCAL_CACHED
        ) == pytest.approx(0.5)
        assert (
            cache.streaming_hit_fraction(1 * MiB, AccessClass.REMOTE_UNCACHED)
            == 0.0
        )


class TestSdma:
    def test_engine_channels(self, node, calibration):
        sdma = node.gcd(0).sdma
        assert sdma.ingress_channel == ("sdma", 0, "in")
        assert sdma.egress_channel == ("sdma", 0, "out")
        for channel in (sdma.ingress_channel, sdma.egress_channel):
            assert node.network.capacity(channel) == calibration.sdma_engine_throughput
        assert sdma.engine_channel(outbound=True) == sdma.egress_channel

    def test_rate_caps_reproduce_fig6c_tiers(self, node):
        sdma = node.gcd(0).sdma
        single = sdma.rate_cap_for_route(node.gcd_route(0, 2))
        dual = sdma.rate_cap_for_route(node.gcd_route(0, 6))
        quad = sdma.rate_cap_for_route(node.gcd_route(0, 1))
        assert single == pytest.approx(37.75e9)
        assert dual == pytest.approx(50e9)
        assert quad == pytest.approx(50e9)

    def test_latency_classes_match_fig6b(self, node):
        sdma = node.gcd(0).sdma
        single = sdma.copy_latency(node.gcd_route(0, 2))
        dual = sdma.copy_latency(node.gcd_route(0, 6))
        quad = sdma.copy_latency(node.gcd_route(0, 1))
        three_hop = sdma.copy_latency(node.gcd_route(1, 7))
        assert single == pytest.approx(8.7e-6)
        assert 10.0e-6 <= dual < 10.5e-6
        assert 10.5e-6 <= quad <= 10.8e-6
        assert 17.8e-6 <= three_hop <= 18.2e-6


class TestCpuSocket:
    def test_channels_registered(self, node, calibration):
        cpu, network = node.cpu, node.network
        for numa in range(4):
            assert cpu.dram_channel(numa) == ("dram", numa)
            assert cpu.port_channel(numa) == ("numaport", numa)
            assert network.capacity(("dram", numa)) == calibration.dram_bw_per_numa
            assert network.capacity(("numaport", numa)) == calibration.numa_ifport_bw
        assert cpu.socket_channel == ("socket",)
        assert network.capacity(("socket",)) == calibration.socket_fabric_bw
        assert cpu.total_dram_bandwidth == pytest.approx(204.8e9)

    def test_local_path_has_no_socket_hop(self, topology, calibration):
        cpu = CpuSocket(topology, calibration)
        channels = cpu.host_side_channels(buffer_numa=0, gcd_index=0)
        assert ("socket",) not in channels

    def test_mismatched_path_crosses_socket(self, topology, calibration):
        cpu = CpuSocket(topology, calibration)
        channels = cpu.host_side_channels(buffer_numa=3, gcd_index=0)
        assert ("socket",) in channels
        assert ("dram", 3) in channels
        assert ("numaport", 0) in channels


class TestGcdDevice:
    def test_peer_access_registry(self, node):
        gcd = node.gcd(0)
        assert gcd.enable_peer_access(1)
        assert not gcd.enable_peer_access(1)  # already on
        assert gcd.can_access_peer(1)
        assert not gcd.can_access_peer(2)
        assert gcd.can_access_peer(0)  # self always
        assert gcd.disable_peer_access(1)
        assert not gcd.disable_peer_access(1)

    def test_self_peer_is_noop(self, node):
        assert not node.gcd(0).enable_peer_access(0)
