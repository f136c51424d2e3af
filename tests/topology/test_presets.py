"""Tests for the canonical topologies (repro.topology.presets)."""

from pathlib import Path

import pytest

from repro import Session
from repro.faults import FaultScenario, LinkFail
from repro.topology.link import LinkTier
from repro.topology.presets import (
    FRONTIER_SINGLE_LINK_PAIRS,
    dense_hive_node,
    frontier_node,
    single_gpu_node,
)
from repro.units import MiB

REPO = Path(__file__).resolve().parents[2]


class TestFrontierPreset:
    def test_paper_narrative_gcd0(self, topology):
        # §II-A: GCD0 — quad to GCD1, dual to GCD6, single to GCD2.
        assert topology.peer_tier(0, 1) is LinkTier.QUAD
        assert topology.peer_tier(0, 6) is LinkTier.DUAL
        assert topology.peer_tier(0, 2) is LinkTier.SINGLE

    def test_single_link_pairs_match_fig6b_class(self, topology):
        singles = {
            frozenset((l.a.index, l.b.index))
            for l in topology.xgmi_links()
            if l.tier is LinkTier.SINGLE
        }
        assert singles == set(FRONTIER_SINGLE_LINK_PAIRS)

    def test_quad_pairs_are_packages(self, topology):
        quads = {
            frozenset((l.a.index, l.b.index))
            for l in topology.xgmi_links()
            if l.tier is LinkTier.QUAD
        }
        assert quads == {
            frozenset(p) for p in ((0, 1), (2, 3), (4, 5), (6, 7))
        }

    def test_every_gcd_has_exactly_one_cpu_link(self, topology):
        counts = {g.index: 0 for g in topology.gcds()}
        for link in topology.cpu_links():
            gcd_end = link.a if link.a.is_gcd else link.b
            counts[gcd_end.index] += 1
        assert all(count == 1 for count in counts.values())

    def test_package_shares_numa(self, topology):
        for gcd in range(0, 8, 2):
            assert topology.numa_of_gcd(gcd) == topology.numa_of_gcd(gcd + 1)

    def test_mi250x_per_gcd_specs(self, topology):
        gcd = topology.gcd(0)
        assert gcd.hbm_bytes == 64 * 10**9
        assert gcd.hbm_peak_bw == 1.6e12
        assert gcd.l2_bytes == 8 * 2**20

    def test_epyc_specs(self, topology):
        numa = topology.numa_domain(0)
        assert numa.dram_latency == pytest.approx(96e-9)
        total_bw = sum(n.dram_peak_bw for n in topology.numa_domains())
        assert total_bw == pytest.approx(204.8e9)
        total_dram = sum(n.dram_bytes for n in topology.numa_domains())
        assert total_dram == 512 * 10**9

    def test_fresh_instances_are_equivalent(self):
        a, b = frontier_node(), frontier_node()
        assert a.link_census() == b.link_census()


class TestOtherPresets:
    def test_single_gpu_node(self):
        node = single_gpu_node()
        assert node.num_gcds == 2
        assert node.peer_tier(0, 1) is LinkTier.QUAD
        assert node.num_numa_domains == 1

    def test_dense_hive_default(self):
        node = dense_hive_node()
        assert node.num_gcds == 8
        # fully connected: 8*7/2 GCD-GCD edges
        assert sum(1 for _ in node.xgmi_links()) == 28

    def test_dense_hive_small(self):
        node = dense_hive_node(1)
        assert node.num_gcds == 2

    def test_dense_hive_invalid(self):
        import pytest as _pytest

        from repro.errors import TopologyError

        with _pytest.raises(TopologyError):
            dense_hive_node(0)


class TestClusterPreset:
    def test_single_node_cluster_rejected(self):
        # Regression: nodes=1 used to thread through the ``nodes - 1``
        # NIC-census special case and silently build a zero-NIC
        # "cluster" that was just a mislabelled frontier node.
        from repro.errors import TopologyError
        from repro.topology.presets import mi250x_cluster

        with pytest.raises(TopologyError, match="at least two nodes"):
            mi250x_cluster(nodes=1)

    def test_two_node_census_regression(self):
        # Pin the nodes=2 duplicate-edge fix with the full link census:
        # each rail collapses to ONE edge (numa_d — numa_{4+d}), so the
        # census must show exactly 4 NIC links — 8 would mean the ring
        # wrapped around and double-connected every rail.
        from repro.topology.presets import mi250x_cluster

        cluster = mi250x_cluster(nodes=2)
        census = cluster.link_census()
        assert census == {
            LinkTier.QUAD: 8,
            LinkTier.DUAL: 4,
            LinkTier.SINGLE: 12,
            LinkTier.CPU: 16,
            LinkTier.NIC: 4,
        }
        rails = {
            frozenset((l.a.index, l.b.index)) for l in cluster.nic_links()
        }
        assert rails == {frozenset((d, 4 + d)) for d in range(4)}

    def test_each_node_replicates_fig1(self):
        from repro.topology.presets import mi250x_cluster

        cluster = mi250x_cluster(nodes=4)
        assert cluster.num_gcds == 32
        assert cluster.num_numa_domains == 16
        assert cluster.num_gpu_packages == 16
        for base in (0, 8, 16, 24):
            assert cluster.peer_tier(base, base + 1) is LinkTier.QUAD
            assert cluster.peer_tier(base, base + 6) is LinkTier.DUAL
            assert cluster.peer_tier(base, base + 2) is LinkTier.SINGLE

    def test_nic_rails_form_a_ring(self):
        from repro.topology.presets import mi250x_cluster

        cluster = mi250x_cluster(nodes=4)
        # 4 rails × 4 ring edges.
        assert sum(1 for _ in cluster.nic_links()) == 16
        # Two-node clusters must not duplicate ring edges.
        assert sum(1 for _ in mi250x_cluster(nodes=2).nic_links()) == 4

    def test_nic_links_stay_out_of_xgmi_census(self):
        from repro.topology.presets import mi250x_cluster

        cluster = mi250x_cluster(nodes=2)
        assert all(
            l.a.is_gcd and l.b.is_gcd for l in cluster.xgmi_links()
        )

    def test_invalid_node_count(self):
        from repro.errors import TopologyError
        from repro.topology.presets import mi250x_cluster

        with pytest.raises(TopologyError):
            mi250x_cluster(nodes=0)

    def test_session_preset_names(self):
        from repro.session import resolve_topology

        assert resolve_topology("mi250x-cluster").num_gcds == 32
        assert resolve_topology("mi250x-cluster-16").num_gcds == 128
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            resolve_topology("mi250x-cluster-0")
        with pytest.raises(ConfigurationError):
            resolve_topology("mi250x-cluster-1")
        with pytest.raises(ConfigurationError):
            resolve_topology("mi250x-cluster-many")


class TestSharedFrontierNode:
    """The default Fig. 1 node is built once per process and shared."""

    NBYTES = 64 * MiB

    def _peer_copy_time(self, session):
        hip = session.hip

        def run():
            src = hip.malloc(self.NBYTES, device=1)
            dst = hip.malloc(self.NBYTES, device=3)
            t0 = hip.now
            yield from hip.memcpy_peer(dst, 3, src, 1)
            return hip.now - t0

        return session.run(run())

    def test_default_node_is_one_instance(self):
        assert frontier_node() is frontier_node()
        assert Session().topology is Session().topology is frontier_node()

    def test_named_build_is_a_distinct_object(self):
        named = frontier_node(name="x")
        assert named is not frontier_node()
        assert named.name == "x"
        assert named.fingerprint() == frontier_node().fingerprint()

    def test_faulted_session_leaves_the_shared_node_healthy(self):
        before = self._peer_copy_time(Session())
        scenario = FaultScenario.load(
            REPO / "benchmarks" / "scenarios" / "degrade_xgmi.json"
        )
        scenario = FaultScenario(
            events=scenario.events + (LinkFail(link="gcd0-gcd2:single", at=0.0),)
        )
        faulted = Session(faults=scenario)
        assert faulted.topology is frontier_node()
        assert self._peer_copy_time(faulted) > before
        assert faulted.node.failed_links()
        fresh = Session()
        assert fresh.topology is frontier_node()
        assert not fresh.node.failed_links()
        assert self._peer_copy_time(fresh) == before
