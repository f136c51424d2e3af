"""Tests for RCCL collectives and the communicator."""

import pytest

from repro.errors import RcclError
from repro.hardware.node import HardwareNode
from repro.rccl.collectives import RCCL_COLLECTIVES
from repro.rccl.communicator import RcclCommunicator
from repro.rccl.ring import RingSegment, build_optimal_ring
from repro.units import MiB, to_us


def latency(name, gcds, nbytes=1 * MiB, ring_builder=None):
    node = HardwareNode()
    kwargs = {}
    if ring_builder is not None:
        kwargs["ring_builder"] = ring_builder
    comm = RcclCommunicator(node, gcds, **kwargs)
    fn = RCCL_COLLECTIVES[name]

    def run():
        t0 = node.now
        yield from fn(comm, nbytes)
        return node.now - t0

    return node.engine.run_process(run())


class TestCommunicator:
    def test_default_communicator_spans_node(self):
        comm = RcclCommunicator(HardwareNode())
        assert comm.size == 8
        assert comm.ring is not None

    def test_single_gcd_has_no_ring(self):
        comm = RcclCommunicator(HardwareNode(), gcds=[0])
        assert comm.ring is None
        assert "single" in comm.describe()

    def test_describe_reports_ring(self):
        comm = RcclCommunicator(HardwareNode(), gcds=list(range(7)))
        text = comm.describe()
        assert "relayed" in text and "7 GCDs" in text

    def test_segment_rate_tiers(self):
        comm = RcclCommunicator(HardwareNode(), gcds=[0, 1])
        segment = comm.ring.segments[0]
        # quad link, kernel unidirectional: 0.88 × 200.
        assert comm.segment_rate(segment) == pytest.approx(176e9)

    def test_relayed_segment_rate_reduced(self):
        comm = RcclCommunicator(HardwareNode(), gcds=list(range(7)))
        relayed = [s for s in comm.ring.segments if s.is_relayed][0]
        direct_rate = comm.calibration.kernel_remote_cap(
            comm.node.bottleneck_tier(relayed.route), bidirectional=False
        )
        assert comm.segment_rate(relayed) == pytest.approx(
            0.7 * direct_rate
        )

    def test_segment_rate_memo_follows_the_route(self):
        # Tree collectives build fresh segments on every call: the memo
        # holds one entry per member pair.  A pair seen again with
        # another route is computed afresh, not served from the memo.
        node = HardwareNode()
        comm = RcclCommunicator(node, algorithm="tree")
        node.engine.run_process(comm.allreduce(1 * MiB))
        pairs = set(comm._segment_rates)
        node.engine.run_process(comm.allreduce(1 * MiB))
        assert set(comm._segment_rates) == pairs
        direct = comm.ring.segments[0]
        relayed = next(
            s
            for s in RcclCommunicator(node, gcds=list(range(7))).ring.segments
            if s.is_relayed
        )
        swapped = RingSegment(direct.src, direct.dst, relayed.route)
        fresh = RcclCommunicator(HardwareNode())
        assert comm.segment_rate(direct) == fresh.segment_rate(direct)
        assert comm.segment_rate(swapped) == fresh.segment_rate(relayed)
        assert comm.segment_rate(direct) == fresh.segment_rate(direct)


class TestCollectiveExecution:
    @pytest.mark.parametrize("name", sorted(RCCL_COLLECTIVES))
    @pytest.mark.parametrize("n", range(2, 9))
    def test_all_complete(self, name, n):
        assert latency(name, list(range(n))) > 0

    @pytest.mark.parametrize("name", sorted(RCCL_COLLECTIVES))
    def test_single_member_is_noop(self, name):
        node = HardwareNode()
        comm = RcclCommunicator(node, [0])
        node.engine.run_process(RCCL_COLLECTIVES[name](comm, 1 * MiB))
        assert node.now == 0.0

    def test_invalid_size(self):
        node = HardwareNode()
        comm = RcclCommunicator(node, [0, 1])
        with pytest.raises(RcclError):
            node.engine.run_process(RCCL_COLLECTIVES["allreduce"](comm, 0))

    def test_invalid_root(self):
        node = HardwareNode()
        comm = RcclCommunicator(node, [0, 1])
        with pytest.raises(RcclError):
            node.engine.run_process(comm.broadcast(1 * MiB, root=5))


class TestPaperShapes:
    def test_two_thread_single_pass_near_bound(self):
        """§VI: two-thread collectives close to the 17.4 µs bound."""
        rs = to_us(latency("reduce_scatter", [0, 1]))
        ag = to_us(latency("allgather", [0, 1]))
        assert 17.4 <= min(rs, ag) <= 21.0

    def test_allreduce_is_two_passes(self):
        rs = latency("reduce_scatter", [0, 1, 2, 3])
        ar = latency("allreduce", [0, 1, 2, 3])
        assert 1.7 * rs < ar < 2.3 * rs

    @pytest.mark.parametrize("name", ["reduce", "broadcast", "allreduce"])
    def test_seven_to_eight_drop(self, name):
        """Fig. 12: latency drops from 7 to 8 threads."""
        seven = latency(name, list(range(7)))
        eight = latency(name, list(range(8)))
        assert eight < seven

    def test_latency_grows_two_to_seven(self):
        for name in ("allreduce", "allgather"):
            two = latency(name, [0, 1])
            four = latency(name, list(range(4)))
            seven = latency(name, list(range(7)))
            assert two < four < seven

    def test_optimal_ring_removes_the_seven_rank_penalty(self):
        greedy = latency("allreduce", list(range(7)))
        optimal = latency(
            "allreduce", list(range(7)), ring_builder=build_optimal_ring
        )
        assert optimal < greedy

    def test_broadcast_ll_protocol_slower_than_allgather(self):
        """Broadcast moves the full message at LL efficiency; at 8
        ranks it is far slower than the chunked single-pass ops."""
        bcast = latency("broadcast", list(range(8)))
        ag = latency("allgather", list(range(8)))
        assert bcast > 2.0 * ag
