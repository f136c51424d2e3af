"""Tests for the assembled HardwareNode."""

import pytest

from repro.errors import TopologyError
from repro.hardware.node import HardwareNode
from repro.hardware.xgmi import (
    both_channels,
    channels_for_route,
    link_channel,
    reverse_channels_for_route,
)
from repro.topology.link import LinkEndpoint, LinkTier
from repro.topology.routing import RoutingPolicy


class TestConstruction:
    def test_default_is_frontier(self):
        node = HardwareNode()
        assert node.num_gcds == 8
        assert node.topology.name == "frontier-mi250x"

    def test_all_link_channels_exist(self, node):
        for link in node.topology.links():
            fwd, rev = both_channels(link)
            assert node.network.has_channel(fwd)
            assert node.network.has_channel(rev)
            assert node.network.capacity(fwd) == link.capacity_per_direction

    def test_gcd_lookup_raises(self, node):
        with pytest.raises(TopologyError):
            node.gcd(99)


class TestRouting:
    def test_route_caching_returns_same_object(self, node):
        r1 = node.gcd_route(1, 7)
        r2 = node.gcd_route(1, 7)
        assert r1 is r2

    def test_policy_distinguished_in_cache(self, node):
        wide = node.gcd_route(1, 7, RoutingPolicy.BANDWIDTH_MAX)
        short = node.gcd_route(1, 7, RoutingPolicy.SHORTEST)
        assert wide.num_hops == 3 and short.num_hops == 2

    def test_cpu_link_route(self, node):
        to_gcd = node.cpu_link_route(5, to_gcd=True)
        assert to_gcd.num_hops == 1
        assert to_gcd.source == LinkEndpoint.numa(2)
        assert to_gcd.destination == LinkEndpoint.gcd(5)
        from_gcd = node.cpu_link_route(5, to_gcd=False)
        assert from_gcd.source == LinkEndpoint.gcd(5)

    def test_bottleneck_tier(self, node):
        assert node.bottleneck_tier(node.gcd_route(0, 1)) is LinkTier.QUAD
        assert node.bottleneck_tier(node.gcd_route(1, 7)) is LinkTier.DUAL
        with pytest.raises(TopologyError):
            node.bottleneck_tier(node.gcd_route(0, 0))


class TestChannelComposition:
    def test_direction_encoding(self, node):
        link = node.topology.require_link(0, 1)
        fwd = link_channel(link, LinkEndpoint.gcd(0), LinkEndpoint.gcd(1))
        rev = link_channel(link, LinkEndpoint.gcd(1), LinkEndpoint.gcd(0))
        assert fwd != rev
        assert fwd[2] == "fwd" and rev[2] == "rev"

    def test_route_channels_reverse(self, node):
        route = node.gcd_route(1, 7)
        fwd = channels_for_route(route)
        rev = reverse_channels_for_route(route)
        assert len(fwd) == len(rev) == 3
        assert set(fwd).isdisjoint(rev)

    def test_host_to_gcd_channels(self, node):
        channels = node.host_to_gcd_channels(buffer_numa=0, gcd_index=0)
        assert ("numaport", 0) in channels
        assert ("dram", 0) in channels
        assert ("hbm", 0) in channels
        assert any(c[0] == "link" for c in channels if isinstance(c, tuple))

    def test_gcd_to_gcd_channels_include_both_hbm(self, node):
        channels = node.gcd_to_gcd_channels(0, 2)
        assert ("hbm", 0) in channels and ("hbm", 2) in channels

    def test_wrong_direction_channels_differ(self, node):
        fwd = node.gcd_to_gcd_channels(0, 2)
        rev = node.gcd_to_gcd_channels(2, 0)
        fwd_links = [c for c in fwd if c[0] == "link"]
        rev_links = [c for c in rev if c[0] == "link"]
        assert set(fwd_links).isdisjoint(rev_links)


class TestHelpers:
    def test_traced_default_node(self):
        node = HardwareNode(trace=True)
        assert node.tracer.enabled

    def test_describe_mentions_calibration(self, node):
        assert "CalibrationProfile" in node.describe()

    def test_run_all_drains(self, node):
        node.engine.timeout(1.0)
        assert node.run_all() == 1.0
