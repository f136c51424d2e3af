"""Functional payload tests for RCCL collectives."""

import numpy as np
import pytest

from repro.errors import RcclError
from repro.hardware.node import HardwareNode
from repro.hip.runtime import HipRuntime
from repro.rccl.collectives import allreduce, broadcast
from repro.rccl.communicator import RcclCommunicator
from repro.units import KiB


def make_comm(n):
    node = HardwareNode()
    hip = HipRuntime(node)
    comm = RcclCommunicator(node, list(range(n)))
    return node, hip, comm


class TestAllreducePayloads:
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_sum_across_gcds(self, n):
        node, hip, comm = make_comm(n)
        size = 1 * KiB
        sendbufs = {}
        recvbufs = {}
        for gcd in comm.gcds:
            send = hip.malloc(size, device=gcd)
            send.ensure_data()[:] = gcd + 1
            sendbufs[gcd] = send
            recv = hip.malloc(size, device=gcd)
            recv.ensure_data()
            recvbufs[gcd] = recv
        node.engine.run_process(allreduce(comm, size, sendbufs, recvbufs))
        expected = sum(g + 1 for g in comm.gcds)
        for recv in recvbufs.values():
            assert (recv.data == expected).all()

    def test_simulation_only_when_no_payloads(self):
        node, hip, comm = make_comm(4)
        size = 1 * KiB
        sendbufs = {g: hip.malloc(size, device=g) for g in comm.gcds}
        recvbufs = {g: hip.malloc(size, device=g) for g in comm.gcds}
        node.engine.run_process(allreduce(comm, size, sendbufs, recvbufs))
        assert all(not b.has_data for b in recvbufs.values())

    def test_missing_buffer_rejected(self):
        node, hip, comm = make_comm(4)
        size = 1 * KiB
        sendbufs = {g: hip.malloc(size, device=g) for g in comm.gcds[:-1]}
        recvbufs = {g: hip.malloc(size, device=g) for g in comm.gcds}
        with pytest.raises(RcclError, match="missing"):
            node.engine.run_process(allreduce(comm, size, sendbufs, recvbufs))

    def test_undersized_buffer_rejected(self):
        node, hip, comm = make_comm(2)
        sendbufs = {g: hip.malloc(512, device=g) for g in comm.gcds}
        recvbufs = {g: hip.malloc(512, device=g) for g in comm.gcds}
        with pytest.raises(RcclError, match="smaller"):
            node.engine.run_process(allreduce(comm, 1024, sendbufs, recvbufs))

    def test_timing_unchanged_by_payloads(self):
        """Functional mode must not perturb the calibrated latencies."""
        size = 1 * KiB
        node1, hip1, comm1 = make_comm(8)
        node1.engine.run_process(allreduce(comm1, size))
        plain = node1.now

        node2, hip2, comm2 = make_comm(8)
        sendbufs = {}
        recvbufs = {}
        for gcd in comm2.gcds:
            send = hip2.malloc(size, device=gcd)
            send.ensure_data()
            sendbufs[gcd] = send
            recv = hip2.malloc(size, device=gcd)
            recvbufs[gcd] = recv
        node2.engine.run_process(allreduce(comm2, size, sendbufs, recvbufs))
        assert node2.now == plain


class TestBroadcastPayloads:
    @pytest.mark.parametrize("root", [0, 6])
    def test_root_content_delivered(self, root):
        node, hip, comm = make_comm(8)
        size = 2 * KiB
        buffers = {}
        for gcd in comm.gcds:
            buffer = hip.malloc(size, device=gcd)
            buffer.ensure_data()[:] = 50 + gcd
            buffers[gcd] = buffer
        node.engine.run_process(broadcast(comm, size, root, buffers))
        for gcd, buffer in buffers.items():
            assert (buffer.data == 50 + root).all(), gcd

    def test_rccl_matches_mpi_result(self):
        """Cross-library functional agreement on the same inputs."""
        from repro.mpi.collectives import allreduce as mpi_allreduce
        from repro.mpi.comm import MpiWorld

        size = 256
        values = [3, 11, 7, 20]

        # MPI result.
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1, 2, 3])

        def main(ctx):
            send = ctx.hip.malloc(size)
            recv = ctx.hip.malloc(size)
            send.ensure_data()[:] = values[ctx.rank]
            recv.ensure_data()
            yield from mpi_allreduce(ctx, send, recv, size)
            return int(recv.data[0])

        mpi_results = world.run(main)

        # RCCL result.
        node, hip, comm = make_comm(4)
        sendbufs = {}
        recvbufs = {}
        for index, gcd in enumerate(comm.gcds):
            send = hip.malloc(size, device=gcd)
            send.ensure_data()[:] = values[index]
            sendbufs[gcd] = send
            recv = hip.malloc(size, device=gcd)
            recv.ensure_data()
            recvbufs[gcd] = recv
        node.engine.run_process(allreduce(comm, size, sendbufs, recvbufs))
        rccl_results = [int(recvbufs[g].data[0]) for g in comm.gcds]

        assert mpi_results == rccl_results == [41, 41, 41, 41]
