"""Unit tests for repro.topology.node (NodeTopology + builder)."""

import pytest

from repro.errors import TopologyError
from repro.topology.link import LinkTier
from repro.topology.node import (
    GcdInfo,
    NodeTopologyBuilder,
    NumaDomainInfo,
)


def tiny_builder():
    builder = NodeTopologyBuilder("tiny")
    builder.add_numa_domain(NumaDomainInfo(index=0))
    for gcd in range(2):
        builder.add_gcd(GcdInfo(index=gcd, gpu_package=0, numa_domain=0))
        builder.connect_cpu(gcd, 0)
    builder.connect_gcds(0, 1, 4)
    return builder


class TestBuilderValidation:
    def test_duplicate_gcd_rejected(self):
        builder = tiny_builder()
        builder.add_gcd(GcdInfo(index=0, gpu_package=0, numa_domain=0))
        with pytest.raises(TopologyError):
            builder.build()

    def test_unknown_numa_rejected(self):
        builder = NodeTopologyBuilder()
        builder.add_numa_domain(NumaDomainInfo(index=0))
        builder.add_gcd(GcdInfo(index=0, gpu_package=0, numa_domain=7))
        builder.connect_cpu(0, 0)
        with pytest.raises(TopologyError):
            builder.build()

    def test_disconnected_rejected(self):
        builder = NodeTopologyBuilder()
        builder.add_numa_domain(NumaDomainInfo(index=0))
        builder.add_gcd(GcdInfo(index=0, gpu_package=0, numa_domain=0))
        builder.add_gcd(GcdInfo(index=1, gpu_package=0, numa_domain=0))
        builder.connect_cpu(0, 0)  # GCD 1 left floating
        with pytest.raises(TopologyError):
            builder.build()

    def test_parallel_edges_rejected(self):
        builder = tiny_builder()
        builder.connect_gcds(0, 1, 1)
        with pytest.raises(TopologyError):
            builder.build()

    def test_negative_gcd_params_rejected(self):
        with pytest.raises(TopologyError):
            GcdInfo(index=0, gpu_package=0, numa_domain=0, hbm_bytes=0)
        with pytest.raises(TopologyError):
            NumaDomainInfo(index=0, dram_bytes=-1)


class TestQueries:
    def test_frontier_counts(self, topology):
        assert topology.num_gcds == 8
        assert topology.num_gpu_packages == 4
        assert topology.num_numa_domains == 4

    def test_gcd_lookup(self, topology):
        assert topology.gcd(3).gpu_package == 1
        with pytest.raises(TopologyError):
            topology.gcd(42)

    def test_link_between(self, topology):
        link = topology.link_between(0, 1)
        assert link is not None and link.tier is LinkTier.QUAD
        assert topology.link_between(0, 7) is None

    def test_require_link_raises(self, topology):
        with pytest.raises(TopologyError):
            topology.require_link(0, 7)

    def test_gcd_neighbors(self, topology):
        # Fig. 1: GCD0 is adjacent to 1 (quad), 2 (single), 6 (dual).
        assert topology.gcd_neighbors(0) == [1, 2, 6]

    def test_peer_tier(self, topology):
        assert topology.peer_tier(0, 1) is LinkTier.QUAD
        assert topology.peer_tier(0, 6) is LinkTier.DUAL
        assert topology.peer_tier(0, 2) is LinkTier.SINGLE
        assert topology.peer_tier(0, 7) is None

    def test_same_package(self, topology):
        assert topology.same_package(0, 1)
        assert not topology.same_package(1, 2)

    def test_package_peer(self, topology):
        assert topology.package_peer(0) == 1
        assert topology.package_peer(7) == 6

    def test_numa_affinity(self, topology):
        for gcd in range(8):
            assert topology.numa_of_gcd(gcd) == gcd // 2
        assert topology.gcds_of_numa(0) == [0, 1]

    def test_cpu_link_of_gcd(self, topology):
        link = topology.cpu_link_of_gcd(5)
        assert link.tier is LinkTier.CPU
        assert link.capacity_per_direction == 36e9

    def test_aggregate_cpu_bandwidth(self, topology):
        assert topology.aggregate_cpu_bandwidth() == 8 * 36e9

    def test_census(self, topology):
        census = topology.link_census()
        assert census[LinkTier.QUAD] == 4
        assert census[LinkTier.DUAL] == 2
        assert census[LinkTier.SINGLE] == 6
        assert census[LinkTier.CPU] == 8

    def test_compiled_tables_are_independent_copies(self, topology):
        compiled = topology.compiled()
        # Adjacency is tuples all the way down: nothing to mutate.
        assert all(isinstance(pairs, tuple) for pairs in compiled.adjacency)
        neighbours = topology.neighbors(0)
        neighbours.clear()
        # The original is untouched.
        assert topology.num_gcds == 8
        assert topology.gcd_neighbors(0) == [1, 2, 6]
        assert topology.compiled() is compiled

    def test_describe_mentions_tiers(self, topology):
        text = topology.describe()
        assert "quad" in text and "single" in text and "cpu" in text
