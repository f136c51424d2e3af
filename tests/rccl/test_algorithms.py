"""Tests for the collective-algorithm zoo (repro.rccl.algorithms)."""

import pytest

from repro.context import active
from repro.errors import RcclError
from repro.rccl import (
    RCCL_ALGORITHMS,
    check_algorithm,
    install_algorithm,
    select_algorithm,
    xgmi_islands,
)
from repro.session import Session
from repro.topology.presets import (
    dense_hive_node,
    frontier_node,
    mi250x_cluster,
)


class TestRegistry:
    def test_known_names(self):
        assert RCCL_ALGORITHMS == (
            "ring",
            "tree",
            "double_binary_tree",
            "hierarchical_ring",
        )

    @pytest.mark.parametrize("name", RCCL_ALGORITHMS + ("auto",))
    def test_check_accepts(self, name):
        assert check_algorithm(name) == name

    def test_check_rejects_unknown(self):
        with pytest.raises(RcclError, match="unknown collective algorithm"):
            check_algorithm("butterfly")


class TestAmbientContext:
    def test_install_and_restore(self):
        assert active().algorithm is None
        with install_algorithm("tree"):
            assert active().algorithm == "tree"
            with install_algorithm(None):
                assert active().algorithm is None
            assert active().algorithm == "tree"
        assert active().algorithm is None

    def test_install_validates(self):
        with pytest.raises(RcclError):
            with install_algorithm("nope"):
                pass

    def test_communicator_adopts_ambient(self):
        with install_algorithm("double_binary_tree"):
            comm = Session().rccl_communicator()
        assert comm.algorithm == "double_binary_tree"

    def test_explicit_beats_ambient(self):
        with install_algorithm("tree"):
            comm = Session().rccl_communicator(algorithm="ring")
        assert comm.algorithm == "ring"

    def test_default_is_the_paper_ring(self):
        assert Session().rccl_communicator().algorithm == "ring"


class TestIslands:
    def test_single_node_is_one_island(self):
        assert xgmi_islands(frontier_node(), range(8)) == [list(range(8))]

    def test_cluster_islands_follow_nodes(self):
        cluster = mi250x_cluster(2)
        islands = xgmi_islands(cluster, range(16))
        assert islands == [list(range(8)), list(range(8, 16))]

    def test_member_subset(self):
        cluster = mi250x_cluster(2)
        assert xgmi_islands(cluster, [3, 9, 1, 12]) == [[1, 3], [9, 12]]


class TestSelection:
    def test_full_node_picks_ring(self):
        assert select_algorithm(frontier_node(), range(8)) == "ring"

    def test_small_groups_pick_tree(self):
        topology = frontier_node()
        assert select_algorithm(topology, [0, 1]) == "tree"
        assert select_algorithm(topology, [0, 1, 2, 3]) == "tree"

    def test_cluster_picks_hierarchical(self):
        cluster = mi250x_cluster(2)
        assert select_algorithm(cluster, range(16)) == "hierarchical_ring"

    def test_sparse_census_picks_double_binary_tree(self):
        # GCDs {0,1,2,3,4,6}: GCD1's only in-set xGMI peers are 0 and 3
        # ... actually build a 5+ member set where some member has < 2
        # direct peers: {0, 1, 4, 5, 7} — 0-1 quad, 4-5 quad, 5-7 single,
        # 1-5 single; member 0 has only peer 1 among the set.
        assert (
            select_algorithm(frontier_node(), [0, 1, 4, 5, 7])
            == "double_binary_tree"
        )

    def test_dense_mesh_picks_ring(self):
        assert select_algorithm(dense_hive_node(4), range(8)) == "ring"

    def test_degenerate_singleton(self):
        assert select_algorithm(frontier_node(), [3]) == "ring"


class TestDispatch:
    @pytest.mark.parametrize(
        "algorithm", ["ring", "tree", "double_binary_tree"]
    )
    def test_node_allreduce_completes(self, algorithm):
        session = Session()
        comm = session.rccl_communicator(algorithm=algorithm)
        session.run(comm.allreduce(1 << 20))
        assert session.now > 0

    def test_algorithms_are_distinguishable(self):
        times = {}
        for algorithm in ("ring", "tree", "double_binary_tree"):
            session = Session()
            comm = session.rccl_communicator(algorithm=algorithm)
            session.run(comm.allreduce(1 << 20))
            times[algorithm] = session.now
        assert len(set(times.values())) == 3

    def test_auto_on_cluster_runs_hierarchical(self):
        session = Session("mi250x-cluster-2")
        comm = session.rccl_communicator(algorithm="auto")
        assert comm.algorithm == "hierarchical_ring"
        session.run(comm.allreduce(1 << 20))
        assert session.now > 0

    def test_hierarchical_beats_flat_ring_on_cluster(self):
        def latency(algorithm):
            session = Session("mi250x-cluster-2")
            comm = session.rccl_communicator(algorithm=algorithm)
            session.run(comm.allreduce(1 << 20))
            return session.now

        assert latency("hierarchical_ring") < latency("ring")

    def test_hierarchical_on_single_island_matches_ring(self):
        def latency(algorithm):
            session = Session()
            comm = session.rccl_communicator(algorithm=algorithm)
            session.run(comm.allreduce(1 << 20))
            return session.now

        assert latency("hierarchical_ring") == latency("ring")

    def test_tree_broadcast_dispatch(self):
        session = Session()
        comm = session.rccl_communicator(algorithm="tree")
        session.run(comm.broadcast(1 << 20, root=0))
        assert session.now > 0

    def test_session_algorithm_kwarg(self):
        session = Session(rccl_algorithm="tree")
        assert session.rccl_communicator().algorithm == "tree"

    def test_session_rejects_unknown_algorithm(self):
        with pytest.raises(RcclError):
            Session(rccl_algorithm="butterfly")


XGMI_TIERS = frozenset({"single", "dual", "quad"})


class TestByteMovement:
    """Differential tests: the algorithms move bytes over the right links."""

    def _channel_bytes(self, topology_spec, algorithm, nbytes=1 << 20):
        from repro.obs.capture import capture

        with capture(trace=False) as ctx:
            session = Session(topology_spec)
            comm = session.rccl_communicator(algorithm=algorithm)
            session.run(comm.allreduce(nbytes))
        return ctx.metrics.snapshot().get("channels", {})

    @staticmethod
    def _bytes_on(channels, tiers):
        # Channel metric names flatten link-channel ids to
        # "link/<lo>-<hi>:<tier>/<dir>"; select by the tier token.
        total = 0.0
        for name, stats in channels.items():
            if not name.startswith("link/"):
                continue
            link_name = name.split("/")[1]
            tier = link_name.rpartition(":")[2]
            if tier in tiers:
                total += stats.get("bytes", 0)
        return total

    def test_ring_on_node_stays_on_xgmi(self):
        channels = self._channel_bytes("mi250x", "ring")
        assert self._bytes_on(channels, {"nic"}) == 0
        assert self._bytes_on(channels, XGMI_TIERS) > 0

    def test_hierarchical_confines_nic_traffic_to_leader_phase(self):
        flat = self._channel_bytes("mi250x-cluster-2", "ring")
        hier = self._channel_bytes("mi250x-cluster-2", "hierarchical_ring")
        # Both must cross the NIC rails (the only inter-node path)...
        assert self._bytes_on(flat, {"nic"}) > 0
        assert self._bytes_on(hier, {"nic"}) > 0
        # ...but the hierarchical pattern only sends the leader-ring
        # chunks over them, far less than the flat 16-member ring whose
        # inter-node segments each carry full S/16 chunks every step.
        assert self._bytes_on(hier, {"nic"}) < self._bytes_on(flat, {"nic"})

    def test_tree_stays_on_xgmi(self):
        channels = self._channel_bytes("mi250x", "tree")
        assert self._bytes_on(channels, {"nic"}) == 0
        assert self._bytes_on(channels, XGMI_TIERS) > 0

    def test_double_binary_tree_differs_from_single_tree(self):
        # Both halves' trees are active each stage, and the two trees
        # overlap on different links; total xGMI bytes must differ from
        # the single tree's (same message, different edge multiset).
        single = self._channel_bytes("mi250x", "tree")
        double = self._channel_bytes("mi250x", "double_binary_tree")
        assert self._bytes_on(single, XGMI_TIERS) != self._bytes_on(
            double, XGMI_TIERS
        )
