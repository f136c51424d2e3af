"""Functional payload mode: numerical verification of data movement.

Buffers are timing-only by default; ``Buffer.ensure_data()`` opts a
buffer into carrying real bytes, and every transfer path then moves
actual contents.  These tests verify copies and collectives *by
value* — the strongest correctness check the simulator offers.
"""

import numpy as np
import pytest

from repro.hardware.node import HardwareNode
from repro.hip.runtime import HipRuntime
from repro.mpi.collectives import allreduce, broadcast, reduce
from repro.mpi.comm import MpiWorld
from repro.units import KiB


class TestHipPayloads:
    def test_default_buffers_carry_no_data(self, hip):
        buffer = hip.malloc(4 * KiB)
        assert not buffer.has_data

    def test_memcpy_moves_content(self, hip):
        host = hip.host_malloc(4 * KiB)
        dev = hip.malloc(4 * KiB)
        host.ensure_data()[:] = np.arange(4 * KiB, dtype=np.uint8)

        def run():
            yield from hip.memcpy(dev, host)

        hip.run(run())
        assert dev.has_data
        np.testing.assert_array_equal(dev.data, host.data)

    def test_memcpy_roundtrip(self, hip):
        src_host = hip.host_malloc(1 * KiB)
        dev = hip.malloc(1 * KiB)
        dst_host = hip.host_malloc(1 * KiB)
        src_host.ensure_data()[:] = 0xAB

        def run():
            yield from hip.memcpy(dev, src_host)
            yield from hip.memcpy(dst_host, dev)

        hip.run(run())
        assert (dst_host.data == 0xAB).all()

    def test_partial_copy_leaves_tail(self, hip):
        a = hip.host_malloc(1 * KiB)
        b = hip.host_malloc(1 * KiB)
        a.ensure_data()[:] = 7
        b.ensure_data()[:] = 9

        def run():
            yield from hip.memcpy(b, a, 512)

        hip.run(run())
        assert (b.data[:512] == 7).all()
        assert (b.data[512:] == 9).all()

    def test_peer_copy_moves_content(self, hip):
        src = hip.malloc(2 * KiB, device=0)
        dst = hip.malloc(2 * KiB, device=7)
        src.ensure_data()[:] = 0x5C

        def run():
            yield from hip.memcpy_peer(dst, 7, src, 0)

        hip.run(run())
        assert (dst.data == 0x5C).all()

    def test_stream_copy_kernel_moves_content(self, hip):
        hip.enable_all_peer_access()
        src = hip.malloc(1 * KiB, device=1)
        dst = hip.malloc(1 * KiB, device=0)
        src.ensure_data()[:] = 3

        def run():
            yield hip.launch_stream_copy(dst, src, device=0)

        hip.run(run())
        assert (dst.data == 3).all()

    def test_init_and_read_sum(self, hip):
        buffer = hip.malloc(1 * KiB)
        buffer.ensure_data()

        def run():
            yield hip.launch_init_array(buffer)
            done = hip.launch_read_sum(buffer)
            yield done
            return done.value

        assert hip.run(run()) == 1 * KiB  # all ones

    def test_triad_sums_bytes(self, hip):
        a = hip.malloc(1 * KiB)
        b = hip.malloc(1 * KiB)
        c = hip.malloc(1 * KiB)
        b.ensure_data()[:] = 2
        c.ensure_data()[:] = 5

        def run():
            yield hip.launch_stream_triad(a, b, c)

        hip.run(run())
        assert (a.data == 7).all()

    def test_untouched_transfers_stay_data_free(self, hip):
        """No materialization when neither side opted in."""
        host = hip.host_malloc(4 * KiB)
        dev = hip.malloc(4 * KiB)

        def run():
            yield from hip.memcpy(dev, host)

        hip.run(run())
        assert not host.has_data and not dev.has_data


class TestMpiPayloads:
    def test_message_content(self):
        world = MpiWorld(HardwareNode(), rank_gcds=[0, 1])

        def main(ctx):
            buf = ctx.hip.malloc(1 * KiB)
            if ctx.rank == 0:
                buf.ensure_data()[:] = 42
                yield from ctx.send(buf, 1)
                return None
            buf.ensure_data()
            yield from ctx.recv(buf, 0)
            return int(buf.data[0]), int(buf.data[-1])

        assert world.run(main)[1] == (42, 42)

    @pytest.mark.parametrize("root", [0, 3])
    def test_broadcast_delivers_root_content(self, root):
        world = MpiWorld(HardwareNode(), rank_gcds=list(range(8)))

        def main(ctx):
            buf = ctx.hip.malloc(1 * KiB)
            buf.ensure_data()[:] = 100 + ctx.rank
            yield from broadcast(ctx, buf, 1 * KiB, root=root)
            return int(buf.data[0])

        values = world.run(main)
        assert values == [100 + root] * 8

    @pytest.mark.parametrize("ranks", [2, 4, 8])
    def test_allreduce_sums_contributions(self, ranks):
        world = MpiWorld(HardwareNode(), rank_gcds=list(range(ranks)))

        def main(ctx):
            send = ctx.hip.malloc(1 * KiB)
            recv = ctx.hip.malloc(1 * KiB)
            send.ensure_data()[:] = ctx.rank + 1
            recv.ensure_data()
            yield from allreduce(ctx, send, recv, 1 * KiB)
            return int(recv.data[0])

        expected = sum(r + 1 for r in range(ranks))
        assert world.run(main) == [expected] * ranks

    def test_allreduce_non_power_of_two(self):
        world = MpiWorld(HardwareNode(), rank_gcds=list(range(3)))

        def main(ctx):
            send = ctx.hip.malloc(256)
            recv = ctx.hip.malloc(256)
            send.ensure_data()[:] = 2 ** ctx.rank
            recv.ensure_data()
            yield from allreduce(ctx, send, recv, 256)
            return int(recv.data[17])

        assert world.run(main) == [7, 7, 7]  # 1 + 2 + 4

    @pytest.mark.parametrize("root", [0, 5])
    def test_reduce_sums_at_root(self, root):
        world = MpiWorld(HardwareNode(), rank_gcds=list(range(8)))

        def main(ctx):
            send = ctx.hip.malloc(512)
            recv = ctx.hip.malloc(512)
            send.ensure_data()[:] = 1
            recv.ensure_data()
            yield from reduce(ctx, send, recv, 512, root=root)
            return int(recv.data[0])

        values = world.run(main)
        assert values[root] == 8  # every rank contributed a 1
