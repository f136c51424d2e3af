"""Tests for repro.topology.numa."""

import pytest

from repro.errors import TopologyError
from repro.topology.numa import (
    NumaMap,
    gcds_per_numa_count,
    interleave_placement,
    numa_distance_matrix,
    numa_mismatch_pairs,
)


class TestNumaMap:
    def test_from_topology(self, topology):
        numa_map = NumaMap.from_topology(topology)
        assert numa_map.gcd_to_numa == (0, 0, 1, 1, 2, 2, 3, 3)
        assert numa_map.num_gcds == 8
        assert numa_map.num_numa_domains == 4

    def test_default_host_numa(self, topology):
        numa_map = NumaMap.from_topology(topology)
        assert numa_map.default_host_numa_for(5) == 2
        with pytest.raises(TopologyError):
            numa_map.default_host_numa_for(8)

    def test_gcds_of(self, topology):
        numa_map = NumaMap.from_topology(topology)
        assert numa_map.gcds_of(3) == (6, 7)
        with pytest.raises(TopologyError):
            numa_map.gcds_of(9)

    def test_is_local(self, topology):
        numa_map = NumaMap.from_topology(topology)
        assert numa_map.is_local(0, 0)
        assert not numa_map.is_local(0, 3)

    def test_as_table(self, topology):
        table = NumaMap.from_topology(topology).as_table()
        assert table[6] == 3


class TestDistanceMatrix:
    def test_single_socket_shape(self):
        matrix = numa_distance_matrix(4)
        assert len(matrix) == 4
        assert all(len(row) == 4 for row in matrix)
        assert [matrix[i][i] for i in range(4)] == [10] * 4
        off = {matrix[i][j] for i in range(4) for j in range(4) if i != j}
        # All off-diagonal distances equal: the property behind the
        # paper's "no NUMA degradation" finding.
        assert off == {12}

    def test_invalid(self):
        with pytest.raises(TopologyError):
            numa_distance_matrix(0)


class TestPlacementHelpers:
    def test_interleave_round_robin(self):
        assert [interleave_placement(i, 4) for i in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_interleave_invalid(self):
        with pytest.raises(TopologyError):
            interleave_placement(0, 0)

    def test_mismatch_pairs_count(self, topology):
        pairs = numa_mismatch_pairs(topology)
        # 8 GCDs × 3 non-local NUMA domains each.
        assert len(pairs) == 24
        for gcd, numa in pairs:
            assert topology.numa_of_gcd(gcd) != numa

    def test_gcds_per_numa_count(self, topology):
        counts = gcds_per_numa_count([0, 1, 2], topology)
        assert counts == {0: 2, 1: 1}
        # The Fig. 4 mechanism: same-GPU placement doubles on one domain.
        assert max(gcds_per_numa_count([0, 1], topology).values()) == 2
        assert max(gcds_per_numa_count([0, 2], topology).values()) == 1
